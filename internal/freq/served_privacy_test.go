package freq_test

import (
	"math"
	"testing"

	"repro/internal/freq"
	"repro/internal/ldprand"
	"repro/internal/task/freqtask"
)

// TestServedMechanismsSpendAtMostEpsilon checks ε-LDP exactly for every
// frequency mechanism ldpd serves, and for Warner's RR: the worst
// likelihood ratio, computed from the fields each Privatize reads, must
// not exceed e^ε beyond float rounding. A served mechanism with no row
// in freq.WorstRatio fails here.
func TestServedMechanismsSpendAtMostEpsilon(t *testing.T) {
	src := ldprand.NewSplitMix64(1)
	for _, eps := range []float64{0.01, 0.1, 0.5, 1, 2, 4, 8} {
		for _, d := range []int{2, 3, 16, 1000} {
			oracles := []freq.Oracle{freq.NewBinaryRR(eps, src)}
			for _, name := range freqtask.Mechanisms() {
				o, err := freqtask.NewOracle(name, eps, d, src)
				if err != nil {
					t.Fatal(err)
				}
				oracles = append(oracles, o)
			}
			for _, o := range oracles {
				ratio, ok := freq.WorstRatio(o)
				if !ok {
					t.Fatalf("served mechanism %s (%T) has no privacy row", o.Name(), o)
				}
				if ratio > math.Exp(eps)*(1+1e-12) {
					t.Errorf("%s eps=%v d=%d: worst ratio %.15g exceeds e^eps = %.15g", o.Name(), eps, d, ratio, math.Exp(eps))
				}
			}
		}
	}
}
