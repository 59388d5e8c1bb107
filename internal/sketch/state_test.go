package sketch

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/binenc"
)

// forgeState writes a sketch state the way MarshalState lays it out,
// with whatever parameters and cells the caller claims; a nil total
// leaves the field out (the count sketch keeps none).
func forgeState(version byte, k, m int, seed uint64, cells []float64, total *float64) []byte {
	w := binenc.NewWriter()
	defer w.Release()
	w.Byte(version)
	w.Varint(int64(k))
	w.Varint(int64(m))
	w.Uint64(seed)
	w.Float64s(cells)
	if total != nil {
		w.Float64(*total)
	}
	return append([]byte(nil), w.Bytes()...)
}

// refuseAll requires every state to bounce off r without moving it.
func refuseAll(t *testing.T, r stater, bad map[string][]byte) {
	t.Helper()
	before, err := r.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	for what, state := range bad {
		if err := r.UnmarshalState(state); err == nil {
			t.Errorf("state with %s accepted", what)
		}
		if after, err := r.MarshalState(); err != nil || !bytes.Equal(after, before) {
			t.Errorf("refused state with %s mutated the receiver (%v)", what, err)
		}
	}
}

// poisoned returns k*m unit cells with one replaced.
func poisoned(n int, bad float64) []float64 {
	cells := make([]float64, n)
	for i := range cells {
		cells[i] = 1
	}
	cells[n/2] = bad
	return cells
}

// TestCountMinStateRoundTrip pins bit-identical checkpoint restore:
// marshal → fresh sketch → unmarshal reproduces every estimate.
func TestCountMinStateRoundTrip(t *testing.T) {
	c := NewCountMin(4, 32, 7)
	for i := 0; i < 500; i++ {
		c.Add([]byte(fmt.Sprintf("item-%d", i%20)), 1+float64(i%3))
	}
	blob, err := c.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	back := NewCountMin(4, 32, 7)
	if err := back.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	if back.Total() != c.Total() {
		t.Fatalf("total %v want %v", back.Total(), c.Total())
	}
	for i := 0; i < 20; i++ {
		item := []byte(fmt.Sprintf("item-%d", i))
		if back.Estimate(item) != c.Estimate(item) {
			t.Fatalf("%s: min estimate drifted", item)
		}
		if back.EstimateMean(item) != c.EstimateMean(item) {
			t.Fatalf("%s: mean estimate drifted", item)
		}
	}

	// Parameter mismatches are refused; the receiver is unchanged.
	for _, other := range []*CountMin{
		NewCountMin(3, 32, 7), NewCountMin(4, 16, 7), NewCountMin(4, 32, 8),
	} {
		if err := other.UnmarshalState(blob); err == nil {
			t.Fatal("state restored onto mismatched parameters")
		}
	}
	v, one, nan := byte(binaryStateVersion), 1.0, math.NaN()
	if err := NewCountMin(4, 32, 7).UnmarshalState(forgeState(v, 4, 32, 7, poisoned(4*32, 1), &one)); err != nil {
		t.Fatalf("well-formed forged state refused: %v", err)
	}
	refuseAll(t, back, map[string][]byte{
		"short rows":             forgeState(v, 4, 32, 7, []float64{1}, &one),
		"a NaN cell":             forgeState(v, 4, 32, 7, poisoned(4*32, math.NaN()), &one),
		"an infinite cell":       forgeState(v, 4, 32, 7, poisoned(4*32, math.Inf(1)), &one),
		"a NaN total":            forgeState(v, 4, 32, 7, poisoned(4*32, 1), &nan),
		"another seed":           forgeState(v, 4, 32, 8, poisoned(4*32, 1), &one),
		"transposed dimensions":  forgeState(v, 32, 4, 7, poisoned(4*32, 1), &one),
		"no bytes":               nil,
		"text":                   []byte(`garbage`),
		"a truncated tail":       blob[:len(blob)-1],
		"an unknown version tag": append([]byte{2}, blob[1:]...),
	})
}

// TestCountMinSnapshotAndReset pins snapshot independence and Reset.
func TestCountMinSnapshotAndReset(t *testing.T) {
	c := NewCountMin(3, 16, 1)
	c.Add([]byte("x"), 5)
	snap := c.Snapshot()
	c.Add([]byte("x"), 5)
	if snap.Estimate([]byte("x")) != 5 {
		t.Fatalf("snapshot sees later writes: %v", snap.Estimate([]byte("x")))
	}
	c.Reset()
	if c.Total() != 0 || c.Estimate([]byte("x")) != 0 {
		t.Fatal("reset left counters behind")
	}
}

// TestCountSketchStateRoundTrip mirrors the count-min round trip for
// the signed sketch.
func TestCountSketchStateRoundTrip(t *testing.T) {
	c := NewCountSketch(5, 32, 9)
	for i := 0; i < 500; i++ {
		c.Add([]byte(fmt.Sprintf("item-%d", i%20)), 1)
	}
	blob, err := c.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	back := NewCountSketch(5, 32, 9)
	if err := back.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		item := []byte(fmt.Sprintf("item-%d", i))
		if back.Estimate(item) != c.Estimate(item) {
			t.Fatalf("%s: estimate drifted", item)
		}
	}
	if err := NewCountSketch(5, 32, 10).UnmarshalState(blob); err == nil {
		t.Fatal("state restored onto mismatched seed")
	}
	v := byte(binaryStateVersion)
	if err := NewCountSketch(5, 32, 9).UnmarshalState(forgeState(v, 5, 32, 9, poisoned(5*32, -1), nil)); err != nil {
		t.Fatalf("well-formed forged state refused: %v", err)
	}
	refuseAll(t, back, map[string][]byte{
		"short rows":             forgeState(v, 5, 32, 9, []float64{1}, nil),
		"a NaN cell":             forgeState(v, 5, 32, 9, poisoned(5*32, math.NaN()), nil),
		"an infinite cell":       forgeState(v, 5, 32, 9, poisoned(5*32, math.Inf(-1)), nil),
		"transposed dimensions":  forgeState(v, 32, 5, 9, poisoned(5*32, 1), nil),
		"a truncated tail":       blob[:len(blob)-1],
		"an unknown version tag": append([]byte{2}, blob[1:]...),
	})
	snap := c.Snapshot()
	c.Reset()
	if c.Estimate([]byte("item-0")) != 0 {
		t.Fatal("reset left counters behind")
	}
	if snap.Estimate([]byte("item-0")) == 0 {
		t.Fatal("snapshot shares state with the original")
	}
}

// stater is the state-codec surface the two sketches share.
type stater interface {
	MarshalState() ([]byte, error)
	UnmarshalState([]byte) error
}

// fixtures pairs each frozen fixture name with a fresh sketch of the
// parameters it was written under (k=4, m=32, seed=9).
var fixtures = []struct {
	name  string
	fresh func() stater
}{
	{"count-min", func() stater { return NewCountMin(4, 32, 9) }},
	{"count-sketch", func() stater { return NewCountSketch(4, 32, 9) }},
}

func fixture(t *testing.T, name string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "state_"+name+".bin"))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestStateRejectsUnknownVersion pins the version gate against the
// frozen fixtures: the leading tag is checked before anything else is
// read, and any value but the current one is refused.
func TestStateRejectsUnknownVersion(t *testing.T) {
	for _, tc := range fixtures {
		t.Run(tc.name, func(t *testing.T) {
			state := fixture(t, tc.name)
			if state[0] != binaryStateVersion {
				t.Fatalf("fixture opens with version byte %d", state[0])
			}
			r := tc.fresh()
			refuseAll(t, r, map[string][]byte{
				"version tag 1":   append([]byte{1}, state[1:]...),
				"version tag 2":   append([]byte{2}, state[1:]...),
				"version tag 255": append([]byte{0xFF}, state[1:]...),
			})
			if err := r.UnmarshalState(state); err != nil {
				t.Fatalf("restore rejected the fixture after the hostile ones: %v", err)
			}
		})
	}
}

// TestLegacyStateFixtures is the frozen half of the compatibility
// contract: testdata/state_<sketch>.bin is one populated sketch as an
// older build wrote it, at commit 5a353ae. It must still restore, and
// this build must write the restored sketch as exactly those bytes.
func TestLegacyStateFixtures(t *testing.T) {
	for _, tc := range fixtures {
		golden, r := fixture(t, tc.name), tc.fresh()
		if err := r.UnmarshalState(golden); err != nil {
			t.Fatalf("%s: golden fixture refused: %v", tc.name, err)
		}
		if got, err := r.MarshalState(); err != nil || !bytes.Equal(got, golden) {
			t.Errorf("%s: MarshalState diverges from the golden bytes (%v)", tc.name, err)
		}
	}
}
