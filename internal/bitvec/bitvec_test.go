package bitvec

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	v := New(130) // crosses word boundaries
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Fatalf("fresh vector has bit %d set", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		v.Clear(i)
		if v.Get(i) {
			t.Fatalf("bit %d still set after Clear", i)
		}
	}
}

func TestFlip(t *testing.T) {
	v := New(10)
	v.Flip(3)
	if !v.Get(3) {
		t.Fatal("flip 0->1 failed")
	}
	v.Flip(3)
	if v.Get(3) {
		t.Fatal("flip 1->0 failed")
	}
}

func TestSetTo(t *testing.T) {
	v := New(4)
	v.SetTo(2, true)
	v.SetTo(2, false)
	if v.Get(2) {
		t.Fatal("SetTo(false) left bit set")
	}
	v.SetTo(1, true)
	if !v.Get(1) {
		t.Fatal("SetTo(true) did not set bit")
	}
}

func TestCount(t *testing.T) {
	v := New(200)
	want := 0
	for i := 0; i < 200; i += 3 {
		v.Set(i)
		want++
	}
	if got := v.Count(); got != want {
		t.Fatalf("Count=%d want %d", got, want)
	}
}

func TestOnes(t *testing.T) {
	v := New(140)
	idx := []int{0, 5, 63, 64, 100, 139}
	for _, i := range idx {
		v.Set(i)
	}
	got := v.Ones()
	if len(got) != len(idx) {
		t.Fatalf("Ones=%v want %v", got, idx)
	}
	for i := range idx {
		if got[i] != idx[i] {
			t.Fatalf("Ones=%v want %v", got, idx)
		}
	}
}

func TestFromBools(t *testing.T) {
	v := FromBools([]bool{true, false, true, true})
	if v.Len() != 4 || !v.Get(0) || v.Get(1) || !v.Get(2) || !v.Get(3) {
		t.Fatalf("FromBools wrong: %v", v.String())
	}
}

func TestLogicalOps(t *testing.T) {
	a := FromBools([]bool{true, true, false, false})
	b := FromBools([]bool{true, false, true, false})

	or := a.Clone()
	or.Or(b)
	if or.String() != "1110" {
		t.Errorf("Or=%s want 1110", or.String())
	}
	and := a.Clone()
	and.And(b)
	if and.String() != "1000" {
		t.Errorf("And=%s want 1000", and.String())
	}
	xor := a.Clone()
	xor.Xor(b)
	if xor.String() != "0110" {
		t.Errorf("Xor=%s want 0110", xor.String())
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(8)
	a.Set(1)
	b := a.Clone()
	b.Set(2)
	if a.Get(2) {
		t.Fatal("clone shares storage with original")
	}
	if !b.Get(1) {
		t.Fatal("clone lost original bits")
	}
}

func TestEqual(t *testing.T) {
	a := FromBools([]bool{true, false, true})
	b := FromBools([]bool{true, false, true})
	c := FromBools([]bool{true, true, true})
	d := New(4)
	if !a.Equal(b) {
		t.Error("equal vectors reported unequal")
	}
	if a.Equal(c) {
		t.Error("different bits reported equal")
	}
	if a.Equal(d) {
		t.Error("different lengths reported equal")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		v := New(n)
		for i := 0; i < n; i += 7 {
			v.Set(i)
		}
		data, err := v.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal n=%d: %v", n, err)
		}
		var back Vector
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatalf("unmarshal n=%d: %v", n, err)
		}
		if !v.Equal(&back) {
			t.Fatalf("round trip mismatch at n=%d", n)
		}
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	if err := new(Vector).UnmarshalBinary([]byte{1, 2}); err == nil {
		t.Error("short buffer accepted")
	}
	v := New(10)
	data, _ := v.MarshalBinary()
	data = append(data, 0) // wrong length
	if err := new(Vector).UnmarshalBinary(data); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Set a bit beyond the declared length.
	v2 := New(10)
	good, _ := v2.MarshalBinary()
	good[4+1] = 0x80 // bit 15 > length 10
	if err := new(Vector).UnmarshalBinary(good); err == nil {
		t.Error("out-of-range set bit accepted")
	}
}

func TestMarshalPropertyRoundTrip(t *testing.T) {
	f := func(bools []bool) bool {
		v := FromBools(bools)
		data, err := v.MarshalBinary()
		if err != nil {
			return false
		}
		var back Vector
		if err := back.UnmarshalBinary(data); err != nil {
			return false
		}
		return v.Equal(&back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXorInvolutionProperty(t *testing.T) {
	f := func(a, b []bool) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		va := FromBools(a[:n])
		vb := FromBools(b[:n])
		orig := va.Clone()
		va.Xor(vb)
		va.Xor(vb)
		return va.Equal(orig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountMatchesOnesProperty(t *testing.T) {
	f := func(bools []bool) bool {
		v := FromBools(bools)
		return v.Count() == len(v.Ones())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(4)
	for _, fn := range []func(){
		func() { v.Get(4) },
		func() { v.Set(-1) },
		func() { v.Clear(100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range access")
				}
			}()
			fn()
		}()
	}
}

func TestMismatchedLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	New(3).Or(New(4))
}

// TestKernelAdds checks the two fold kernels against their bit-at-a-time
// definitions over Get, across the word-boundary lengths.
func TestKernelAdds(t *testing.T) {
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // xorshift64
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	weights := [2]float64{-0.4, 1.7}
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000, 1024} {
		counts, wantCounts := make([]int64, n+3), make([]int64, n+3)
		cells, wantCells := make([]float64, n+3), make([]float64, n+3)
		for round := 0; round < 5; round++ {
			v := New(n)
			for i := 0; i < n; i++ {
				if next()&1 == 1 || i == n-1 && round == 0 {
					v.Set(i)
				}
			}
			v.AddOnesTo(counts)
			v.AddWeightsTo(cells, &weights)
			for i := 0; i < n; i++ {
				if v.Get(i) {
					wantCounts[i]++
					wantCells[i] += weights[1]
				} else {
					wantCells[i] += weights[0]
				}
			}
		}
		// Entries past Len stay untouched (the +3 tail stays zero).
		if !reflect.DeepEqual(counts, wantCounts) {
			t.Errorf("n=%d: AddOnesTo = %v, want %v", n, counts, wantCounts)
		}
		if !reflect.DeepEqual(cells, wantCells) {
			t.Errorf("n=%d: AddWeightsTo = %v, want %v", n, cells, wantCells)
		}
	}
}

func TestKernelAddsPanicOnShortDestination(t *testing.T) {
	v := New(65)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a short destination did not panic", name)
			}
		}()
		f()
	}
	mustPanic("AddOnesTo", func() { v.AddOnesTo(make([]int64, 64)) })
	mustPanic("AddWeightsTo", func() { v.AddWeightsTo(make([]float64, 64), &[2]float64{}) })
}
