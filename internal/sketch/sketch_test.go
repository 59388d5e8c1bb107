package sketch

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cms"
)

func item(i int) []byte { return []byte(fmt.Sprintf("item-%d", i)) }

// add folds weight for item into every row and the total, the way the
// sketch task fills the matrix (AddToCell at the row hash's position,
// then AddTotal).
func add(c *CountMin, item []byte, weight float64) {
	p := cms.Params{Width: c.m, Seed: c.seed}
	for i := range c.rows {
		c.AddToCell(i, p.Position(i, item), weight)
	}
	c.AddTotal(weight)
}

func TestCountMinMergeMatchesUnion(t *testing.T) {
	a := NewCountMin(3, 32, 9)
	b := NewCountMin(3, 32, 9)
	for i := 0; i < 50; i++ {
		add(a, item(i%7), 1)
		add(b, item(i%5), 2)
	}
	union := NewCountMin(3, 32, 9)
	for i := 0; i < 50; i++ {
		add(union, item(i%7), 1)
		add(union, item(i%5), 2)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	got, err := a.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	want, err := union.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("merged sketch differs from the union's")
	}
}

func TestCountMinMergeRejectsIncompatible(t *testing.T) {
	a := NewCountMin(3, 32, 1)
	cases := []*CountMin{
		NewCountMin(4, 32, 1),
		NewCountMin(3, 64, 1),
		NewCountMin(3, 32, 2),
	}
	for i, b := range cases {
		if err := a.Merge(b); err == nil {
			t.Errorf("case %d: incompatible merge accepted", i)
		}
	}
}

func TestAddToCellAndTotal(t *testing.T) {
	cm := NewCountMin(2, 8, 1)
	cm.AddToCell(0, 3, 2.5)
	cm.AddTotal(1)
	if cm.Row(0)[3] != 2.5 {
		t.Fatalf("cell not updated: %v", cm.Row(0))
	}
	if cm.Total() != 1 {
		t.Fatalf("total %v want 1", cm.Total())
	}
}

func TestNewPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewCountMin(0, 8, 0) },
		func() { NewCountMin(2, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
