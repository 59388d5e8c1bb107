package mean

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/binenc"
	"repro/internal/ldprand"
)

// forgeState writes a state blob field by field, the way MarshalState
// lays it out: a byte is the version tag, ints are varints, []float64
// a packed float vector.
func forgeState(fields ...any) []byte {
	w := binenc.NewWriter()
	defer w.Release()
	for _, f := range fields {
		switch v := f.(type) {
		case byte:
			w.Byte(v)
		case string:
			w.String(v)
		case float64:
			w.Float64(v)
		case int:
			w.Varint(int64(v))
		case []float64:
			w.PackedFloat64s(v)
		default:
			panic("forgeState: unsupported field type")
		}
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

// TestDuchiMergeMatchesSequential pins exact mergeability: splitting a
// report stream across two estimators and merging equals one estimator
// absorbing everything, up to float summation order (splitting
// reorders the additions, which costs at most an ulp).
func TestDuchiMergeMatchesSequential(t *testing.T) {
	src := ldprand.NewSplitMix64(1)
	whole := NewDuchi(1, src)
	left := NewDuchi(1, nil)
	right := NewDuchi(1, nil)
	for i := 0; i < 1000; i++ {
		r := whole.Privatize(2*ldprand.Float64(src) - 1)
		whole.Aggregate(r)
		if i%2 == 0 {
			left.Aggregate(r)
		} else {
			right.Aggregate(r)
		}
	}
	if err := left.Merge(right.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if left.Collected() != whole.Collected() || math.Abs(left.Estimate()-whole.Estimate()) > 1e-12 {
		t.Fatalf("merged (%d, %v) != sequential (%d, %v)",
			left.Collected(), left.Estimate(), whole.Collected(), whole.Estimate())
	}
	if err := left.Merge(NewDuchi(2, nil)); err == nil {
		t.Fatal("merge across epsilons accepted")
	}
}

// TestHarmonyMergeMatchesSequential does the same for the vector path.
func TestHarmonyMergeMatchesSequential(t *testing.T) {
	const dim = 4
	src := ldprand.NewSplitMix64(2)
	whole := NewHarmony(1, dim, src)
	left := NewHarmony(1, dim, nil)
	right := NewHarmony(1, dim, nil)
	for i := 0; i < 1000; i++ {
		x := make([]float64, dim)
		for j := range x {
			x[j] = 2*ldprand.Float64(src) - 1
		}
		r := whole.Privatize(x)
		whole.Aggregate(r)
		if i%2 == 0 {
			left.Aggregate(r)
		} else {
			right.Aggregate(r)
		}
	}
	if err := left.Merge(right.Snapshot()); err != nil {
		t.Fatal(err)
	}
	lm, wm := left.Estimate(), whole.Estimate()
	for j := range wm {
		if math.Abs(lm[j]-wm[j]) > 1e-12 {
			t.Fatalf("merged %v != sequential %v", lm, wm)
		}
	}
	if err := left.Merge(NewHarmony(1, dim+1, nil)); err == nil {
		t.Fatal("merge across dimensions accepted")
	}
}

// TestHarmonyVariancePinsEmpirical pins the analytic worst-case
// variance d·C²/n against measurement: many independent estimators of
// the all-zero vector give ~480 samples of the per-coordinate
// estimate, whose empirical variance must match the formula within a
// factor the sampling noise allows. This is the test that catches a
// mis-derived constant (the d²·C²/n overstatement served inflated
// confidence intervals before it was pinned).
func TestHarmonyVariancePinsEmpirical(t *testing.T) {
	const dim, n, trials = 8, 400, 60
	src := ldprand.NewSplitMix64(11)
	zero := make([]float64, dim)
	var sumSq float64
	var samples int
	for tr := 0; tr < trials; tr++ {
		h := NewHarmony(1, dim, src)
		for i := 0; i < n; i++ {
			h.Collect(zero)
		}
		for _, v := range h.Estimate() {
			sumSq += v * v
			samples++
		}
	}
	empirical := sumSq / float64(samples)
	analytic := NewHarmony(1, dim, nil).Variance(n)
	if ratio := analytic / empirical; ratio < 0.5 || ratio > 2 {
		t.Fatalf("analytic variance %v vs empirical %v (ratio %.2f)", analytic, empirical, ratio)
	}
}

// TestDuchiStateRoundTrip pins bit-identical checkpoint restore and
// parameter guarding.
func TestDuchiStateRoundTrip(t *testing.T) {
	src := ldprand.NewSplitMix64(3)
	d := NewDuchi(1.5, src)
	for i := 0; i < 500; i++ {
		d.Collect(2*ldprand.Float64(src) - 1)
	}
	blob, err := d.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	back := NewDuchi(1.5, nil)
	if err := back.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	if back.Collected() != d.Collected() || back.Estimate() != d.Estimate() {
		t.Fatal("state round trip drifted")
	}
	if err := NewDuchi(2, nil).UnmarshalState(blob); err == nil {
		t.Fatal("state restored onto mismatched epsilon")
	}
	v := byte(binaryStateVersion)
	if err := NewDuchi(1.5, nil).UnmarshalState(forgeState(v, "duchi", 1.5, 0.25, 3)); err != nil {
		t.Fatalf("well-formed forged state refused: %v", err)
	}
	refuseAll(t, back, map[string][]byte{
		"a negative count":       forgeState(v, "duchi", 1.5, 0.0, -1),
		"a NaN sum":              forgeState(v, "duchi", 1.5, math.NaN(), 3),
		"an infinite sum":        forgeState(v, "duchi", 1.5, math.Inf(-1), 3),
		"Harmony's name":         forgeState(v, "harmony", 1.5, 0.25, 3),
		"no bytes":               nil,
		"text":                   []byte(`garbage`),
		"a truncated tail":       blob[:len(blob)-1],
		"an unknown version tag": append([]byte{7}, blob[1:]...),
	})
}

// TestHarmonyStateRoundTrip does the same for the vector path,
// including the snapshot independence of the sums slice.
func TestHarmonyStateRoundTrip(t *testing.T) {
	const dim = 3
	src := ldprand.NewSplitMix64(4)
	h := NewHarmony(1, dim, src)
	for i := 0; i < 500; i++ {
		x := make([]float64, dim)
		for j := range x {
			x[j] = 2*ldprand.Float64(src) - 1
		}
		h.Collect(x)
	}
	snap := h.Snapshot()
	before := h.Estimate()
	blob, err := h.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the original must not touch the snapshot.
	h.Collect([]float64{1, 1, 1})
	if !reflect.DeepEqual(snap.Estimate(), before) {
		t.Fatal("snapshot shares state with the original")
	}

	back := NewHarmony(1, dim, nil)
	if err := back.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Estimate(), before) {
		t.Fatal("state round trip drifted")
	}
	if err := NewHarmony(1, dim+1, nil).UnmarshalState(blob); err == nil {
		t.Fatal("state restored onto mismatched dimension")
	}
	v := byte(binaryStateVersion)
	if err := NewHarmony(1, dim, nil).UnmarshalState(forgeState(v, "harmony", 1.0, dim, []float64{1, -2, 0.5}, 4)); err != nil {
		t.Fatalf("well-formed forged state refused: %v", err)
	}
	refuseAll(t, back, map[string][]byte{
		"a NaN sum":              forgeState(v, "harmony", 1.0, dim, []float64{1, math.NaN(), 0.5}, 4),
		"an infinite sum":        forgeState(v, "harmony", 1.0, dim, []float64{1, -2, math.Inf(1)}, 4),
		"a short sum vector":     forgeState(v, "harmony", 1.0, dim, []float64{1, -2}, 4),
		"a negative count":       forgeState(v, "harmony", 1.0, dim, []float64{1, -2, 0.5}, -4),
		"another epsilon":        forgeState(v, "harmony", 2.0, dim, []float64{1, -2, 0.5}, 4),
		"Duchi's name":           forgeState(v, "duchi", 1.0, dim, []float64{1, -2, 0.5}, 4),
		"a truncated tail":       blob[:len(blob)-1],
		"an unknown version tag": append([]byte{7}, blob[1:]...),
	})
	// Reset clears the restored aggregate.
	back.Reset()
	if back.Collected() != 0 {
		t.Fatalf("collected %d after reset", back.Collected())
	}
}

// TestStateRejectsUnknownVersion pins the version gate against the
// frozen fixtures: the leading tag is checked before anything else is
// read, and any value but the current one is a future revision that
// must be refused.
func TestStateRejectsUnknownVersion(t *testing.T) {
	for name, r := range map[string]stater{"duchi": NewDuchi(1, nil), "harmony": NewHarmony(1, 3, nil)} {
		t.Run(name, func(t *testing.T) {
			state, err := os.ReadFile(filepath.Join("testdata", "state_"+name+".bin"))
			if err != nil {
				t.Fatal(err)
			}
			if state[0] != binaryStateVersion {
				t.Fatalf("fixture opens with version byte %d", state[0])
			}
			refuseAll(t, r, map[string][]byte{
				"version tag 1":   append([]byte{1}, state[1:]...),
				"version tag 7":   append([]byte{7}, state[1:]...),
				"version tag 255": append([]byte{0xFF}, state[1:]...),
			})
			if err := r.UnmarshalState(state); err != nil {
				t.Fatalf("restore rejected the fixture after the hostile ones: %v", err)
			}
		})
	}
}

// stater is the state-codec surface Duchi and Harmony share.
type stater interface {
	MarshalState() ([]byte, error)
	UnmarshalState([]byte) error
	Collected() int
}

// TestLegacyStateFixtures is the frozen half of the compatibility
// contract: testdata/state_<mechanism>.bin is the state of one
// 200-report aggregate as an older build wrote it, at commit 5a353ae.
// It must still restore, to that aggregate, and this build must write
// that aggregate as exactly those bytes.
func TestLegacyStateFixtures(t *testing.T) {
	for name, r := range map[string]stater{"duchi": NewDuchi(1, nil), "harmony": NewHarmony(1, 3, nil)} {
		golden, err := os.ReadFile(filepath.Join("testdata", "state_"+name+".bin"))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.UnmarshalState(golden); err != nil {
			t.Fatalf("%s: golden fixture refused: %v", name, err)
		}
		if got, err := r.MarshalState(); err != nil || r.Collected() != 200 || !bytes.Equal(got, golden) {
			t.Errorf("%s: %d reports, MarshalState = %x (%v), golden %x", name, r.Collected(), got, err, golden)
		}
	}
}
