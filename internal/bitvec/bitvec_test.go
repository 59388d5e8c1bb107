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
		if back.String() != v.String() {
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
		v := fromBools(bools)
		data, err := v.MarshalBinary()
		if err != nil {
			return false
		}
		var back Vector
		if err := back.UnmarshalBinary(data); err != nil {
			return false
		}
		return back.String() == v.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountMatchesOnesProperty(t *testing.T) {
	f := func(bools []bool) bool {
		v := fromBools(bools)
		return v.Count() == len(v.Ones())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func fromBools(b []bool) *Vector {
	v := New(len(b))
	for i, set := range b {
		v.SetTo(i, set)
	}
	return v
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
