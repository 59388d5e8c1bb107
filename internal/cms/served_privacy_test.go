package cms_test

import (
	"math"
	"testing"

	"repro/internal/cms"
	"repro/internal/ldprand"
	"repro/internal/task/cmstask"
)

// TestServedMechanismsSpendAtMostEpsilon checks ε-LDP exactly for every
// sketch mechanism ldpd serves: the worst likelihood ratio, computed
// from the flip probability each client reads, must not exceed e^ε
// beyond float rounding. A served mechanism with no client here, or a
// client with no row in cms.WorstRatio, fails.
func TestServedMechanismsSpendAtMostEpsilon(t *testing.T) {
	for _, eps := range []float64{0.01, 0.1, 0.5, 1, 2, 4, 8} {
		p := cms.Params{Epsilon: eps, Width: 64, Hashes: 4, Seed: 1}
		for _, name := range cmstask.Mechanisms() {
			var client any
			var err error
			switch name {
			case cmstask.MechanismCMS:
				client, err = cms.NewClient(p, ldprand.NewSplitMix64(1))
			case cmstask.MechanismHCMS:
				client, err = cms.NewHadamardClient(p, ldprand.NewSplitMix64(1))
			default:
				t.Fatalf("served mechanism %s has no privacy row", name)
			}
			if err != nil {
				t.Fatal(err)
			}
			ratio, ok := cms.WorstRatio(client)
			if !ok {
				t.Fatalf("served mechanism %s (%T) has no privacy row", name, client)
			}
			if ratio > math.Exp(eps)*(1+1e-12) {
				t.Errorf("%s eps=%v: worst ratio %.15g exceeds e^eps = %.15g", name, eps, ratio, math.Exp(eps))
			}
		}
	}
}
