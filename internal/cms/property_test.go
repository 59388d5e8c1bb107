package cms

import (
	"math"
	"testing"

	"repro/internal/ldprand"
)

// TestCMSPrivacyFlipBound: the per-coordinate flip probability must
// correspond to exactly ε/2 per differing coordinate (two coordinates
// differ between any two one-hot rows).
func TestCMSPrivacyFlipBound(t *testing.T) {
	for _, eps := range []float64{0.5, 1, 2, 4} {
		c, err := NewClient(Params{Epsilon: eps, Width: 32, Hashes: 4}, ldprand.NewSplitMix64(1))
		if err != nil {
			t.Fatal(err)
		}
		keep := 1 - c.flip
		ratio := keep / c.flip
		if math.Abs(ratio-math.Exp(eps/2)) > 1e-9*math.Exp(eps/2) {
			t.Errorf("eps=%v: per-coordinate ratio %v want e^(eps/2)=%v",
				eps, ratio, math.Exp(eps/2))
		}
	}
}

// TestHCMSPrivacyFlipBound: one coordinate ⇒ the full ε on the single
// transmitted bit.
func TestHCMSPrivacyFlipBound(t *testing.T) {
	for _, eps := range []float64{0.5, 1, 3} {
		c, err := NewHadamardClient(Params{Epsilon: eps, Width: 32, Hashes: 4}, ldprand.NewSplitMix64(1))
		if err != nil {
			t.Fatal(err)
		}
		keep := 1 - c.flip
		ratio := keep / c.flip
		if math.Abs(ratio-math.Exp(eps)) > 1e-9*math.Exp(eps) {
			t.Errorf("eps=%v: bit ratio %v want e^eps=%v", eps, ratio, math.Exp(eps))
		}
	}
}
