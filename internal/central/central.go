// Package central implements the centralized differential privacy
// substrate that the tutorial contrasts LDP against (§1.5): a trusted
// aggregator sees raw data and adds calibrated noise once, giving
// O(1/ε) error instead of LDP's O(√n/ε). It is used by the hybrid
// model (internal/hybrid) and the central-vs-local gap experiment (E11).
package central

import (
	"math"

	"repro/internal/ldprand"
)

// LaplaceMechanism releases real-valued queries with Laplace noise
// calibrated to their L1 sensitivity.
type LaplaceMechanism struct {
	epsilon     float64
	sensitivity float64
	src         ldprand.Source
}

// NewLaplace returns a Laplace mechanism with the given budget and
// query sensitivity. A nil source selects crypto/rand.
func NewLaplace(epsilon, sensitivity float64, src ldprand.Source) *LaplaceMechanism {
	if epsilon <= 0 || math.IsNaN(epsilon) || math.IsInf(epsilon, 0) {
		panic("central: epsilon must be positive and finite")
	}
	if sensitivity <= 0 {
		panic("central: sensitivity must be positive")
	}
	if src == nil {
		src = ldprand.NewCrypto()
	}
	return &LaplaceMechanism{epsilon: epsilon, sensitivity: sensitivity, src: src}
}

// Scale returns the noise scale b = sensitivity/ε.
func (m *LaplaceMechanism) Scale() float64 { return m.sensitivity / m.epsilon }

// Release returns value + Laplace(sensitivity/ε) noise.
func (m *LaplaceMechanism) Release(value float64) float64 {
	return value + ldprand.Laplace(m.src, m.Scale())
}

// Variance returns the noise variance of one released value: 2b².
func (m *LaplaceMechanism) Variance() float64 {
	b := m.Scale()
	return 2 * b * b
}
