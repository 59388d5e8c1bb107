package transform

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWHTKnownValues(t *testing.T) {
	xs := []float64{1, 0, 0, 0}
	WHT(xs)
	for i, v := range xs {
		if v != 1 {
			t.Fatalf("WHT(e0)[%d]=%v want 1", i, v)
		}
	}
	ys := []float64{0, 1, 0, 0}
	WHT(ys)
	want := []float64{1, -1, 1, -1}
	for i := range want {
		if ys[i] != want[i] {
			t.Fatalf("WHT(e1)=%v want %v", ys, want)
		}
	}
}

func TestWHTInvolutionProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		n := NextPow2(len(raw))
		xs := make([]float64, n)
		copy(xs, raw)
		for i := range xs {
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) || math.Abs(xs[i]) > 1e12 {
				return true
			}
		}
		orig := make([]float64, n)
		copy(orig, xs)
		WHT(xs)
		Inverse(xs)
		for i := range xs {
			if math.Abs(xs[i]-orig[i]) > 1e-6*(1+math.Abs(orig[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWHTMatchesEntry(t *testing.T) {
	// Transforming the j-th standard basis vector must yield column j of
	// the Hadamard matrix.
	const n = 16
	for j := 0; j < n; j++ {
		xs := make([]float64, n)
		xs[j] = 1
		WHT(xs)
		for i := 0; i < n; i++ {
			if xs[i] != Entry(i, j) {
				t.Fatalf("WHT(e%d)[%d]=%v, Entry=%v", j, i, xs[i], Entry(i, j))
			}
		}
	}
}

func TestEntrySymmetry(t *testing.T) {
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			if Entry(i, j) != Entry(j, i) {
				t.Fatalf("Entry(%d,%d) not symmetric", i, j)
			}
		}
	}
	if Entry(0, 5) != 1 || Entry(7, 0) != 1 {
		t.Error("first row/col must be all ones")
	}
}

func TestEntryOrthogonality(t *testing.T) {
	// Rows of H_n are orthogonal: dot(r1, r2) = 0 for r1 != r2.
	const n = 16
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			var dot float64
			for j := 0; j < n; j++ {
				dot += Entry(a, j) * Entry(b, j)
			}
			if dot != 0 {
				t.Fatalf("rows %d,%d not orthogonal: %v", a, b, dot)
			}
		}
	}
}

func TestWHTPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WHT(make([]float64, 3))
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d)=%d want %d", in, got, want)
		}
	}
}

func TestMasksOfWeightAtMost(t *testing.T) {
	got := MasksOfWeightAtMost(3, 1)
	want := []int{0, 1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("masks=%v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("masks=%v want %v", got, want)
		}
	}
	// All 2-way masks over 4 attributes: C(4,0)+C(4,1)+C(4,2) = 11.
	if got := MasksOfWeightAtMost(4, 2); len(got) != 11 {
		t.Fatalf("weight<=2 over 4 attrs: %d masks, want 11", len(got))
	}
}

func TestSubmasksOf(t *testing.T) {
	got := SubmasksOf(0b101)
	want := []int{0, 1, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("submasks=%v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("submasks=%v want %v", got, want)
		}
	}
	if got := SubmasksOf(0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("submasks of 0 = %v", got)
	}
}

func TestCoefficientMatchesEntry(t *testing.T) {
	for m := 0; m < 8; m++ {
		for r := 0; r < 8; r++ {
			if Coefficient(m, r) != Entry(m, r) {
				t.Fatalf("Coefficient(%d,%d) != Entry", m, r)
			}
		}
	}
}

func BenchmarkWHT1024(b *testing.B) {
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = float64(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WHT(xs)
	}
}
