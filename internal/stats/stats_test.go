package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEmptyAndSingleton(t *testing.T) {
	if MSE(nil, nil) != 0 || MAE(nil, nil) != 0 {
		t.Error("empty error metrics should be 0")
	}
}

func TestMSEAndMAE(t *testing.T) {
	est := []float64{1, 2, 3}
	truth := []float64{2, 2, 5}
	if got := MSE(est, truth); math.Abs(got-5.0/3.0) > 1e-12 {
		t.Errorf("MSE=%v want %v", got, 5.0/3.0)
	}
	if got := MAE(est, truth); math.Abs(got-1) > 1e-12 {
		t.Errorf("MAE=%v want 1", got)
	}
}

func TestTotalVariation(t *testing.T) {
	p := []float64{1, 0, 0, 0}
	q := []float64{0, 1, 0, 0}
	if got := TotalVariation(p, q); math.Abs(got-1) > 1e-12 {
		t.Errorf("disjoint TV=%v want 1", got)
	}
	if got := TotalVariation(p, p); got != 0 {
		t.Errorf("identical TV=%v want 0", got)
	}
	// Raw counts are normalized.
	if got := TotalVariation([]float64{2, 2}, []float64{500, 500}); got != 0 {
		t.Errorf("scaled TV=%v want 0", got)
	}
}

func TestTotalVariationNegativeClamped(t *testing.T) {
	// Estimated counts can be negative; they are clamped before
	// normalization rather than producing distances above 1.
	got := TotalVariation([]float64{-5, 10}, []float64{1, 1})
	if got < 0 || got > 1 {
		t.Errorf("TV out of [0,1]: %v", got)
	}
}

func TestKSDistance(t *testing.T) {
	p := []float64{1, 0, 0}
	q := []float64{0, 0, 1}
	if got := KSDistance(p, q); math.Abs(got-1) > 1e-12 {
		t.Errorf("KS=%v want 1", got)
	}
	if got := KSDistance(p, p); got != 0 {
		t.Errorf("KS identical=%v want 0", got)
	}
}

func TestTVSymmetricProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		x, y := a[:n], b[:n]
		for i := range x { // keep values finite
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) || math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
				return true
			}
		}
		d1 := TotalVariation(x, y)
		d2 := TotalVariation(y, x)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0 && d1 <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTopK(t *testing.T) {
	xs := []float64{1, 9, 3, 7, 7}
	got := TopK(xs, 3)
	want := []int{1, 3, 4} // 9, then the two 7s in index order
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopK=%v want %v", got, want)
		}
	}
	if len(TopK(xs, 100)) != len(xs) {
		t.Error("k beyond length should clamp")
	}
}

func TestPrecisionRecall(t *testing.T) {
	p, r, f1 := PrecisionRecall([]int{1, 2, 3, 4}, []int{1, 2, 5, 6})
	if p != 0.5 || r != 0.5 || math.Abs(f1-0.5) > 1e-12 {
		t.Errorf("got p=%v r=%v f1=%v want 0.5 each", p, r, f1)
	}
	p, r, f1 = PrecisionRecall(nil, []int{1})
	if p != 0 || r != 0 || f1 != 0 {
		t.Error("empty prediction should give zeros")
	}
}

func TestNCR(t *testing.T) {
	truth := []int{10, 20, 30} // weights 3, 2, 1; total 6
	if got := NCR([]int{10, 20, 30}, truth); got != 1 {
		t.Errorf("perfect NCR=%v want 1", got)
	}
	if got := NCR([]int{10}, truth); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("NCR=%v want 0.5", got)
	}
	if got := NCR([]int{99}, truth); got != 0 {
		t.Errorf("NCR=%v want 0", got)
	}
}

func TestMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	MSE([]float64{1}, []float64{1, 2})
}
