package tally

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/binenc"
)

func TestCheck(t *testing.T) {
	const wrap = 1 << 62
	for _, tc := range []struct {
		name      string
		tally     Tally
		perReport int
		ok        bool
	}{
		{"empty", New(3), 0, true},
		{"cells within n", Tally{N: 4, Cells: []int64{4, 0, 2}}, 0, true},
		{"one cell a report", Tally{N: 4, Cells: []int64{1, 0, 3}}, 1, true},
		{"k cells a report", Tally{N: 4, Cells: []int64{4, 2, 2}}, 2, true},
		{"a negative n", Tally{N: -1, Cells: make([]int64, 3)}, 0, false},
		{"a short vector", Tally{N: 1, Cells: []int64{1, 0}}, 0, false},
		{"a negative cell", Tally{N: 2, Cells: []int64{0, -1, 0}}, 0, false},
		{"a cell above n", Tally{N: 2, Cells: []int64{0, 3, 0}}, 0, false},
		{"a sum short of n", Tally{N: 4, Cells: []int64{1, 0, 2}}, 1, false},
		{"a sum past k·n", Tally{N: 4, Cells: []int64{4, 4, 1}}, 2, false},
		{"a sum that wraps to n", Tally{N: 3, Cells: []int64{wrap, wrap, wrap + 3}}, 1, false},
		{"k·n past int64", Tally{N: math.MaxInt64, Cells: []int64{math.MaxInt64, math.MaxInt64, 0}}, 2, false},
	} {
		if err := tc.tally.Check(3, tc.perReport); (err == nil) != tc.ok {
			t.Errorf("%s: Check = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestMerge(t *testing.T) {
	a := Tally{N: 3, Cells: []int64{1, 2, 3}}
	if err := a.Merge(Tally{N: 2, Cells: []int64{2, 0, 1}}); err != nil || a.N != 5 || !slices.Equal(a.Cells, []int64{3, 2, 4}) {
		t.Fatalf("merge = %+v, %v", a, err)
	}
	for name, o := range map[string]Tally{
		"another width":     {N: 1, Cells: []int64{1}},
		"an int64 wrap":     {N: math.MaxInt64 - 4, Cells: make([]int64, 3)},
		"no cells at all":   {N: 0},
		"one cell too many": {N: 1, Cells: make([]int64, 4)},
	} {
		if err := a.Merge(o); err == nil {
			t.Errorf("merge of %s accepted", name)
		}
		if a.N != 5 || !slices.Equal(a.Cells, []int64{3, 2, 4}) {
			t.Errorf("refused merge of %s moved the receiver to %+v", name, a)
		}
	}
}

func TestCloneResetCodec(t *testing.T) {
	a := Tally{N: 300, Cells: []int64{0, 1, 300, 150}}
	c := a.Clone()
	c.Cells[0]++
	if a.Cells[0] != 0 {
		t.Fatal("a clone shares cells with its original")
	}
	w := binenc.NewWriter()
	defer w.Release()
	a.Write(w)
	// n, then binenc.Int64s: the layout GRR, UE, THE, SS and hh write.
	ref := binenc.NewWriter()
	defer ref.Release()
	ref.Varint(300)
	ref.Int64s([]int64{0, 1, 300, 150})
	if !bytes.Equal(w.Bytes(), ref.Bytes()) {
		t.Fatalf("layout %x, want %x", w.Bytes(), ref.Bytes())
	}
	r := binenc.NewReader(w.Bytes())
	if back := Read(r); r.Done() != nil || back.N != a.N || !slices.Equal(back.Cells, a.Cells) {
		t.Fatalf("read back %+v (%v)", back, r.Done())
	}
	a.Reset()
	if a.N != 0 || !slices.Equal(a.Cells, make([]int64, 4)) {
		t.Fatalf("reset left %+v", a)
	}
	if got := (Tally{N: 4, Cells: []int64{4, 1}}).Debias(0.75, 0.25); got[0] != 6 || got[1] != 0 {
		t.Fatalf("debias = %v, want [6 0]", got)
	}
}
