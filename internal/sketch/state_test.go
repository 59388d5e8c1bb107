package sketch

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/binenc"
)

// forgeState writes a sketch state the way MarshalState lays it out,
// with whatever parameters and cells the caller claims.
func forgeState(version byte, k, m int, seed uint64, cells []float64, total float64) []byte {
	w := binenc.NewWriter()
	defer w.Release()
	w.Byte(version)
	w.Varint(int64(k))
	w.Varint(int64(m))
	w.Uint64(seed)
	w.Float64s(cells)
	w.Float64(total)
	return append([]byte(nil), w.Bytes()...)
}

// refuseAll requires every state to bounce off r without moving it.
func refuseAll(t *testing.T, r *CountMin, bad map[string][]byte) {
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
// marshal → fresh sketch → unmarshal reproduces every counter.
func TestCountMinStateRoundTrip(t *testing.T) {
	c := NewCountMin(4, 32, 7)
	for i := 0; i < 500; i++ {
		add(c, item(i%20), 1+float64(i%3)/3)
	}
	blob, err := c.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	back := NewCountMin(4, 32, 7)
	if err := back.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.rows, c.rows) || back.Total() != c.Total() {
		t.Fatal("restored counters differ from the original")
	}

	// Parameter mismatches are refused; the receiver is unchanged.
	for _, other := range []*CountMin{
		NewCountMin(3, 32, 7), NewCountMin(4, 16, 7), NewCountMin(4, 32, 8),
	} {
		if err := other.UnmarshalState(blob); err == nil {
			t.Fatal("state restored onto mismatched parameters")
		}
	}
	v := byte(binaryStateVersion)
	if err := NewCountMin(4, 32, 7).UnmarshalState(forgeState(v, 4, 32, 7, poisoned(4*32, 1), 1)); err != nil {
		t.Fatalf("well-formed forged state refused: %v", err)
	}
	refuseAll(t, back, map[string][]byte{
		"short rows":             forgeState(v, 4, 32, 7, []float64{1}, 1),
		"a NaN cell":             forgeState(v, 4, 32, 7, poisoned(4*32, math.NaN()), 1),
		"an infinite cell":       forgeState(v, 4, 32, 7, poisoned(4*32, math.Inf(1)), 1),
		"a NaN total":            forgeState(v, 4, 32, 7, poisoned(4*32, 1), math.NaN()),
		"another seed":           forgeState(v, 4, 32, 8, poisoned(4*32, 1), 1),
		"transposed dimensions":  forgeState(v, 32, 4, 7, poisoned(4*32, 1), 1),
		"no bytes":               nil,
		"text":                   []byte(`garbage`),
		"a truncated tail":       blob[:len(blob)-1],
		"an unknown version tag": append([]byte{2}, blob[1:]...),
	})
}

// TestCountMinSnapshotAndReset pins snapshot independence and Reset.
func TestCountMinSnapshotAndReset(t *testing.T) {
	c := NewCountMin(3, 16, 1)
	add(c, []byte("x"), 5)
	snap := c.Snapshot()
	before, _ := snap.MarshalState()
	add(c, []byte("x"), 5)
	if after, _ := snap.MarshalState(); !bytes.Equal(after, before) {
		t.Fatal("snapshot sees later writes")
	}
	c.Reset()
	got, _ := c.MarshalState()
	fresh, _ := NewCountMin(3, 16, 1).MarshalState()
	if !bytes.Equal(got, fresh) {
		t.Fatal("reset left counters behind")
	}
}

// freshFixture is a sketch of the parameters the frozen fixture was
// written under (k=4, m=32, seed=9).
func freshFixture() *CountMin { return NewCountMin(4, 32, 9) }

func fixture(t *testing.T, name string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "state_"+name+".bin"))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestStateRejectsUnknownVersion pins the version gate against the
// frozen fixture: the leading tag is checked before anything else is
// read, and any value but the current one is refused.
func TestStateRejectsUnknownVersion(t *testing.T) {
	t.Run("count-min", func(t *testing.T) {
		state := fixture(t, "count-min")
		if state[0] != binaryStateVersion {
			t.Fatalf("fixture opens with version byte %d", state[0])
		}
		r := freshFixture()
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

// TestLegacyStateFixtures is the frozen half of the compatibility
// contract: testdata/state_count-min.bin is one populated sketch as an
// older build wrote it, at commit 5a353ae. It must still restore, and
// this build must write the restored sketch as exactly those bytes.
func TestLegacyStateFixtures(t *testing.T) {
	golden, r := fixture(t, "count-min"), freshFixture()
	if err := r.UnmarshalState(golden); err != nil {
		t.Fatalf("golden fixture refused: %v", err)
	}
	if got, err := r.MarshalState(); err != nil || !bytes.Equal(got, golden) {
		t.Errorf("MarshalState diverges from the golden bytes (%v)", err)
	}
}
