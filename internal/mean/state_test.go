package mean

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ldprand"
)

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
	if err := back.UnmarshalLegacyState([]byte(`{"mechanism":"duchi","epsilon":1.5,"sum":0,"n":-1}`)); err == nil {
		t.Fatal("negative count accepted")
	}
	for _, garbage := range [][]byte{nil, []byte(`garbage`), blob[:len(blob)-1], append([]byte{7}, blob[1:]...)} {
		if err := back.UnmarshalState(garbage); err == nil {
			t.Fatalf("garbage state %q accepted", garbage)
		}
	}
	if back.Collected() != d.Collected() || back.Estimate() != d.Estimate() {
		t.Fatal("refused restore mutated the receiver")
	}
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
	// Reset clears the restored aggregate.
	back.Reset()
	if back.Collected() != 0 {
		t.Fatalf("collected %d after reset", back.Collected())
	}
}

// TestStateRejectsUnknownVersion pins the version gate of the legacy
// JSON decoders against the frozen fixtures: untagged and explicitly
// v=0 blobs restore, anything else is a future revision and must be
// refused. (The binary gate is the leading byte, pinned in the
// round-trip tests above and in TestLegacyStateFixtures' goldens.)
func TestStateRejectsUnknownVersion(t *testing.T) {
	for _, tc := range []struct {
		name      string
		unmarshal func([]byte) error
	}{
		{"duchi", NewDuchi(1, nil).UnmarshalLegacyState},
		{"harmony", NewHarmony(1, 3, nil).UnmarshalLegacyState},
	} {
		t.Run(tc.name, func(t *testing.T) {
			state, err := os.ReadFile(filepath.Join("testdata", "state_"+tc.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(state, []byte(`"v":`)) {
				t.Fatalf("fixture carries a version tag: %s", state)
			}
			if err := tc.unmarshal(append([]byte(`{"v":7,`), state[1:]...)); err == nil {
				t.Fatal("restore accepted a version-7 state blob")
			}
			if err := tc.unmarshal(append([]byte(`{"v":0,`), state[1:]...)); err != nil {
				t.Fatalf("restore rejected an explicit v=0 tag: %v", err)
			}
		})
	}
}

// stater is the state-codec surface Duchi and Harmony share.
type stater interface {
	MarshalState() ([]byte, error)
	UnmarshalState([]byte) error
	UnmarshalLegacyState([]byte) error
	Collected() int
}

// TestLegacyStateFixtures is the frozen half of the compatibility
// contract: testdata/state_<mechanism>.json and .bin are the JSON and
// binary encodings of one 200-report aggregate, written at commit
// 5a353ae by the last build that had a JSON encoder. The JSON must
// still restore, to exactly the aggregate the binary fixture holds,
// and this build must write that aggregate as exactly those bytes.
func TestLegacyStateFixtures(t *testing.T) {
	for name, build := range map[string]func() stater{
		"duchi":   func() stater { return NewDuchi(1, nil) },
		"harmony": func() stater { return NewHarmony(1, 3, nil) },
	} {
		legacy, err := os.ReadFile(filepath.Join("testdata", "state_"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		golden, err := os.ReadFile(filepath.Join("testdata", "state_"+name+".bin"))
		if err != nil {
			t.Fatal(err)
		}
		fromLegacy, fromGolden := build(), build()
		if err := fromLegacy.UnmarshalLegacyState(legacy); err != nil {
			t.Fatalf("%s: legacy JSON fixture refused: %v", name, err)
		}
		if err := fromGolden.UnmarshalState(golden); err != nil {
			t.Fatalf("%s: golden binary fixture refused: %v", name, err)
		}
		for via, r := range map[string]stater{"legacy JSON": fromLegacy, "binary": fromGolden} {
			got, err := r.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if r.Collected() != 200 || !bytes.Equal(got, golden) {
				t.Errorf("%s via %s: %d reports, MarshalState = %x, golden %x", name, via, r.Collected(), got, golden)
			}
		}
	}
}
