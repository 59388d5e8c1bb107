package sketch

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

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
	if err := back.UnmarshalLegacyState([]byte(`{"k":4,"m":32,"seed":7,"rows":[1],"total":1}`)); err == nil {
		t.Fatal("short rows accepted")
	}
	for _, garbage := range [][]byte{nil, []byte(`garbage`), blob[:len(blob)-1], append([]byte{2}, blob[1:]...)} {
		if err := back.UnmarshalState(garbage); err == nil {
			t.Fatalf("garbage state (%d bytes) accepted", len(garbage))
		}
	}
	if back.Total() != c.Total() {
		t.Fatal("refused restore mutated the receiver")
	}
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
	if err := back.UnmarshalState(append([]byte{2}, blob[1:]...)); err == nil {
		t.Fatal("version-2 state accepted")
	}
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
	UnmarshalLegacyState([]byte) error
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

func fixture(t *testing.T, name, ext string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "state_"+name+ext))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestStateRejectsUnknownVersion pins the version gate of the legacy
// JSON decoders against the frozen fixtures: untagged and v=0 blobs
// restore, any other tag is refused.
func TestStateRejectsUnknownVersion(t *testing.T) {
	for _, tc := range fixtures {
		t.Run(tc.name, func(t *testing.T) {
			state := fixture(t, tc.name, ".json")
			if bytes.Contains(state, []byte(`"v":`)) {
				t.Fatalf("fixture carries a version tag: %s", state)
			}
			if err := tc.fresh().UnmarshalLegacyState(append([]byte(`{"v":2,`), state[1:]...)); err == nil {
				t.Fatal("restore accepted a version-2 state blob")
			}
			if err := tc.fresh().UnmarshalLegacyState(append([]byte(`{"v":0,`), state[1:]...)); err != nil {
				t.Fatalf("restore rejected an explicit v=0 tag: %v", err)
			}
		})
	}
}

// TestLegacyStateFixtures is the frozen half of the compatibility
// contract: testdata/state_<sketch>.json and .bin are the JSON and
// binary encodings of one populated sketch, written at commit 5a353ae
// by the last build that had a JSON encoder. The JSON must still
// restore, to exactly the sketch the binary fixture holds, and this
// build must write that sketch as exactly those bytes.
func TestLegacyStateFixtures(t *testing.T) {
	for _, tc := range fixtures {
		golden := fixture(t, tc.name, ".bin")
		fromLegacy, fromGolden := tc.fresh(), tc.fresh()
		if err := fromLegacy.UnmarshalLegacyState(fixture(t, tc.name, ".json")); err != nil {
			t.Fatalf("%s: legacy JSON fixture refused: %v", tc.name, err)
		}
		if err := fromGolden.UnmarshalState(golden); err != nil {
			t.Fatalf("%s: golden binary fixture refused: %v", tc.name, err)
		}
		for via, r := range map[string]stater{"legacy JSON": fromLegacy, "binary": fromGolden} {
			got, err := r.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, golden) {
				t.Errorf("%s via %s: MarshalState diverges from the golden bytes", tc.name, via)
			}
		}
	}
}
