package heavyhitters

import "math"

// worstRatio returns the largest Pr[report | v] / Pr[report | v′] of
// one LHMech report, computed from the fields Privatize reads: the
// seed is drawn independently of v, and given it the bucket is the
// true one with probability coin(p) (the share of the 2⁵³ values of
// ldprand.Float64 below p) and each of the g−1 others uniformly.
func worstRatio(m LHMech) float64 {
	p := math.Ceil(m.p*(1<<53)) / (1 << 53)
	q := (1 - p) / float64(m.g-1)
	return math.Max(p/q, q/p)
}

// WorstRatio exposes worstRatio to the external test that ranges over
// the mechanisms ldpd serves.
var WorstRatio = worstRatio
