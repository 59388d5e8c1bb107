package mean_test

import (
	"math"
	"testing"

	"repro/internal/ldprand"
	"repro/internal/mean"
	"repro/internal/task/meantask"
)

// TestServedMechanismsSpendAtMostEpsilon checks ε-LDP exactly for every
// mean mechanism ldpd serves: the worst likelihood ratio, computed from
// the fields each Privatize reads, must not exceed e^ε beyond float
// rounding. A served mechanism with no row here fails.
func TestServedMechanismsSpendAtMostEpsilon(t *testing.T) {
	for _, eps := range []float64{0.01, 0.1, 0.5, 1, 2, 4, 8} {
		for _, name := range meantask.Mechanisms() {
			var m any
			switch name {
			case meantask.MechanismDuchi:
				m = mean.NewDuchi(eps, ldprand.NewSplitMix64(1))
			case meantask.MechanismHarmony:
				m = mean.NewHarmony(eps, 3, ldprand.NewSplitMix64(1))
			default:
				t.Fatalf("served mechanism %s has no privacy row", name)
			}
			ratio, ok := mean.WorstRatio(m)
			if !ok {
				t.Fatalf("served mechanism %s (%T) has no privacy row", name, m)
			}
			if ratio > math.Exp(eps)*(1+1e-12) {
				t.Errorf("%s eps=%v: worst ratio %.15g exceeds e^eps = %.15g", name, eps, ratio, math.Exp(eps))
			}
		}
	}
}
