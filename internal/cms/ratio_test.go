package cms

import "math"

// coin is the probability that ldprand.Bernoulli(s, p) comes up true:
// the share of the 2⁵³ equally likely values of Float64(s) below p.
// BernoulliWords lanes have the same law.
func coin(p float64) float64 { return math.Ceil(p*(1<<53)) / (1 << 53) }

// worstRatio returns the largest Pr[report | v] / Pr[report | v′] over
// every report and every pair of items, computed from the flip
// probability the client's Report reads, and false for a type it has
// no row for. The row (and HCMS's coefficient index) is drawn
// independently of the item.
func worstRatio(client any) (float64, bool) {
	switch c := client.(type) {
	case *Client:
		// Two items differ in at most two coordinates of a row; each
		// reads +1 with probability 1−f under one and f under the other.
		f := coin(c.flip)
		one := math.Max((1-f)/f, f/(1-f))
		return one * one, true
	case *HadamardClient:
		f := coin(c.flip)
		return math.Max((1-f)/f, f/(1-f)), true
	}
	return 0, false
}

// WorstRatio exposes worstRatio to the external test that ranges over
// the mechanisms ldpd serves.
var WorstRatio = worstRatio
