package mean

import "math"

// coin is the probability that ldprand.Bernoulli(s, p) comes up true:
// the share of the 2⁵³ equally likely values of Float64(s) below p.
func coin(p float64) float64 { return math.Ceil(p*(1<<53)) / (1 << 53) }

// worstRatio returns the largest Pr[report | x] / Pr[report | x′] over
// both reports and every pair of inputs in [−1, 1], computed from the
// output magnitude c the mechanism's Privatize reads, and false for a
// type it has no row for. +C is reported with probability
// 1/2 + x/(2c), so the extreme inputs ±1 give the extreme coins;
// Harmony's coordinate is drawn independently of the record.
func worstRatio(m any) (float64, bool) {
	var c float64
	switch m := m.(type) {
	case *Duchi:
		c = m.c
	case *Harmony:
		c = m.c
	default:
		return 0, false
	}
	hi, lo := coin(0.5+1/(2*c)), coin(0.5-1/(2*c))
	return math.Max(hi/lo, (1-lo)/(1-hi)), true
}

// WorstRatio exposes worstRatio to the external test that ranges over
// the mechanisms ldpd serves.
var WorstRatio = worstRatio
