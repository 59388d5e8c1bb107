package heavyhitters

import (
	"math"
	"testing"

	"repro/internal/ldprand"
)

func TestPEMParamsValidate(t *testing.T) {
	bad := []PEMParams{
		{Epsilon: 0, Bits: 8, Levels: 2, K: 1},
		{Epsilon: 1, Bits: 0, Levels: 1, K: 1},
		{Epsilon: 1, Bits: 64, Levels: 2, K: 1},
		{Epsilon: 1, Bits: 8, Levels: 9, K: 1},
		{Epsilon: 1, Bits: 8, Levels: 0, K: 1},
		{Epsilon: 1, Bits: 8, Levels: 2, K: 0},
		{Epsilon: 1, Bits: 8, Levels: 2, K: 1, CandidateBudget: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
	good := PEMParams{Epsilon: 1, Bits: 8, Levels: 2, K: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("good params rejected: %v", err)
	}
}

func TestPrefixLenMonotone(t *testing.T) {
	p := PEMParams{Epsilon: 1, Bits: 13, Levels: 4, K: 1}
	prev := 0
	for i := 0; i < p.Levels; i++ {
		l := p.PrefixLen(i)
		if l <= prev && !(i == 0 && l > 0) {
			t.Fatalf("prefix lengths not increasing: level %d len %d after %d", i, l, prev)
		}
		prev = l
	}
	if prev != p.Bits {
		t.Fatalf("final prefix length %d want %d", prev, p.Bits)
	}
}

func TestBaselineRejectsHugeDomain(t *testing.T) {
	if _, err := BaselineGRR(1, 24, 3, nil, nil); err == nil {
		t.Fatal("24-bit baseline accepted")
	}
}

func TestLHMechanismCalibration(t *testing.T) {
	m := NewLHMech(2)
	src := ldprand.NewSplitMix64(10)
	const n = 30000
	reports := make([]LHReport, n)
	for i := range reports {
		reports[i] = m.Privatize(42, src)
	}
	counts := m.EstimateCounts(reports, []uint64{42, 43})
	if math.Abs(counts[0]-n) > 0.1*n {
		t.Errorf("true item estimate %.0f want about %d", counts[0], n)
	}
	if math.Abs(counts[1]) > 0.1*n {
		t.Errorf("absent item estimate %.0f want about 0", counts[1])
	}
}

// TestSupportFoldMatchesEstimateCounts pins the accumulator primitives
// against the list-based reference: folding each report's support
// indicators into integer sums and debiasing once must reproduce
// EstimateCounts bit for bit, in any fold order and across any split
// of the reports (vector-added partial sums).
func TestSupportFoldMatchesEstimateCounts(t *testing.T) {
	for _, epsilon := range []float64{0.5, 2, 5} {
		mech := NewLHMech(epsilon)
		src := ldprand.NewSplitMix64(uint64(math.Float64bits(epsilon)))
		candidates := make([]uint64, 48)
		for i := range candidates {
			candidates[i] = uint64(ldprand.Intn(src, 1<<12))
		}
		reports := make([]LHReport, 700)
		for i := range reports {
			reports[i] = mech.Privatize(candidates[ldprand.Intn(src, len(candidates))], src)
		}
		want := mech.EstimateCounts(reports, candidates)

		sums := make([]int64, len(candidates))
		for _, i := range ldprand.Perm(src, len(reports)) { // arbitrary fold order
			mech.FoldSupport(reports[i], candidates, sums)
		}
		// Split-and-add: partial sums over any partition add to the same
		// vector (this is what shard merges rely on).
		split := ldprand.Intn(src, len(reports)-1) + 1
		partial := make([]int64, len(candidates))
		for _, half := range [][]LHReport{reports[:split], reports[split:]} {
			part := make([]int64, len(candidates))
			for _, r := range half {
				mech.FoldSupport(r, candidates, part)
			}
			for i := range partial {
				partial[i] += part[i]
			}
		}
		for i := range sums {
			if sums[i] != partial[i] {
				t.Fatalf("eps=%v: split fold sum[%d]=%d, whole fold %d", epsilon, i, partial[i], sums[i])
			}
		}
		got := mech.EstimateFromSupport(sums, len(reports))
		for i := range want {
			if got[i] != want[i] { // exact: same float ops on the same integers
				t.Fatalf("eps=%v candidate %d: accumulator %v, EstimateCounts %v", epsilon, i, got[i], want[i])
			}
		}
	}
}
