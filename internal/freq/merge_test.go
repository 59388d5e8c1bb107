package freq_test

// Merge-law property tests: for every mechanism in the registry,
// splitting a report stream across k oracles and merging them must be
// indistinguishable from one oracle aggregating the whole stream. This
// is the algebraic fact the sharded server (internal/core) relies on,
// so it is pinned here, driven through the freqtask.Mechanisms() registry
// so any mechanism added there is covered automatically.
//
// The external test package is deliberate: it lets the test use the
// freqtask registry without an import cycle.

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/freq"
	"repro/internal/ldprand"
	"repro/internal/tally"
	"repro/internal/task/freqtask"
)

// newOracle builds a registry oracle at the suite's default ε=1.5, d=16.
func newOracle(name string, src ldprand.Source) (freq.Oracle, error) {
	return freqtask.NewOracle(name, 1.5, 16, src)
}

// TestMergeLawAllMechanisms checks Merge(split(reports)) ≡
// aggregate(all reports) on Collected() and EstimateCounts().
func TestMergeLawAllMechanisms(t *testing.T) {
	const n, parts = 3000, 7
	for _, name := range freqtask.Mechanisms() {
		name := name
		t.Run(name, func(t *testing.T) {
			// The split oracles share one source seeded like the
			// sequential oracle's, so report i is privatized from the
			// same random draws on both sides.
			sequential, err := newOracle(name, ldprand.NewSplitMix64(11))
			if err != nil {
				t.Fatal(err)
			}
			splitSrc := ldprand.NewSplitMix64(11)
			shards := make([]freq.Oracle, parts)
			for i := range shards {
				if shards[i], err = newOracle(name, splitSrc); err != nil {
					t.Fatal(err)
				}
			}
			src := ldprand.NewSplitMix64(12)
			for i := 0; i < n; i++ {
				v := ldprand.Intn(src, 16)
				sequential.Collect(v)
				shards[i%parts].Collect(v)
			}

			merged, err := newOracle(name, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range shards {
				if err := merged.Merge(s.Snapshot()); err != nil {
					t.Fatal(err)
				}
			}
			if merged.Collected() != sequential.Collected() {
				t.Fatalf("merged collected %d, sequential %d", merged.Collected(), sequential.Collected())
			}
			got, want := merged.EstimateCounts(), sequential.EstimateCounts()
			for v := range want {
				// Integer-count accumulators are exactly equal; the
				// float accumulators (SHE sums, HRR coefficient sums)
				// may differ by summation order, so allow ulp-scale
				// slack relative to the count magnitude.
				tol := 1e-9 * (1 + math.Abs(want[v]))
				if diff := math.Abs(got[v] - want[v]); diff > tol {
					t.Errorf("value %d: merged %v, sequential %v (diff %g)", v, got[v], want[v], diff)
				}
			}
		})
	}
}

// TestMergeRejectsIncompatible checks that cross-mechanism and
// cross-parameter merges fail rather than silently corrupting tallies,
// and so does a merge whose report count would wrap int64: two sound
// GRR states of 2⁶² reports each would otherwise merge to n = −2⁶³, a
// state the oracle's own UnmarshalState then refuses.
func TestMergeRejectsIncompatible(t *testing.T) {
	for _, name := range freqtask.Mechanisms() {
		name := name
		t.Run(name, func(t *testing.T) {
			dst, err := newOracle(name, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Different mechanism.
			otherName := freqtask.MechanismGRR
			if name == freqtask.MechanismGRR {
				otherName = freqtask.MechanismOUE
			}
			other, err := newOracle(otherName, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.Merge(other); err == nil {
				t.Errorf("merged %s into %s", otherName, name)
			}
			// Same mechanism, different epsilon.
			diffEps, err := freqtask.NewOracle(name, 0.5, 16, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.Merge(diffEps); err == nil {
				t.Errorf("%s: merged mismatched epsilon", name)
			}
			// Same mechanism, different domain.
			diffDom, err := freqtask.NewOracle(name, 1.5, 32, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.Merge(diffDom); err == nil {
				t.Errorf("%s: merged mismatched domain", name)
			}
			if dst.Collected() != 0 {
				t.Errorf("%s: failed merges changed state", name)
			}
			if name != freqtask.MechanismGRR {
				return
			}
			half := tally.New(16)
			half.N, half.Cells[0] = 1<<62, 1<<62
			forge := forgeCounting(dst)
			src, err := newOracle(name, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.UnmarshalState(forge(half)); err != nil {
				t.Fatal(err)
			}
			if err := src.UnmarshalState(forge(half)); err != nil {
				t.Fatal(err)
			}
			if err := dst.Merge(src); err == nil {
				t.Errorf("%s: merge past math.MaxInt64 reports accepted (n=%d)", name, dst.Collected())
			}
			if after, err := dst.MarshalState(); err != nil || !bytes.Equal(after, forge(half)) {
				t.Errorf("%s: refused overflowing merge changed state (%v)", name, err)
			}
		})
	}
}

// TestSnapshotIsIndependent checks that a snapshot is a deep copy: the
// original keeps collecting without disturbing the snapshot's state.
func TestSnapshotIsIndependent(t *testing.T) {
	for _, name := range freqtask.Mechanisms() {
		name := name
		t.Run(name, func(t *testing.T) {
			o, err := newOracle(name, ldprand.NewSplitMix64(21))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				o.Collect(i % 16)
			}
			snap := o.Snapshot()
			before := snap.EstimateCounts()
			for i := 0; i < 100; i++ {
				o.Collect(i % 16)
			}
			if snap.Collected() != 100 {
				t.Fatalf("snapshot collected %d after original advanced", snap.Collected())
			}
			after := snap.EstimateCounts()
			for v := range before {
				if before[v] != after[v] {
					t.Fatalf("value %d: snapshot estimate moved %v -> %v", v, before[v], after[v])
				}
			}
			if o.Collected() != 200 {
				t.Fatalf("original collected %d", o.Collected())
			}
		})
	}
}

// TestBinaryRRMerge covers what is particular to the named Warner
// wrapper (its merge law is TestTallyLifecycle's RR case): it merges
// neither way with a bare GRR, even at d=2.
func TestBinaryRRMerge(t *testing.T) {
	rr, grr := freq.NewBinaryRR(1, nil), freq.NewGRR(1, 2, nil)
	if err := rr.Merge(grr); err == nil {
		t.Error("BinaryRR merged a bare GRR")
	}
	if err := grr.Merge(rr); err == nil {
		t.Error("GRR merged a BinaryRR")
	}
}
