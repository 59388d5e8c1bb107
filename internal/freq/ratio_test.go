package freq

import "math"

// coin is the probability that ldprand.Bernoulli(s, p) comes up true:
// the share of the 2⁵³ equally likely values of Float64(s) below p.
// BernoulliWords lanes have the same law.
func coin(p float64) float64 {
	return math.Min(1, math.Max(0, math.Ceil(p*(1<<53))/(1<<53)))
}

// ratio is the worst likelihood ratio of one output that has
// probability a under one input and b under the other.
func ratio(a, b float64) float64 { return math.Max(a/b, b/a) }

// swapped is the worst likelihood ratio of two independent bits that
// are 1 with probabilities (a, b) under one input and (b, a) under the
// other, as the two lanes a pair of one-hot encodings differ in.
func swapped(a, b float64) float64 {
	return math.Max(a/b, (1-a)/(1-b)) * math.Max(b/a, (1-b)/(1-a))
}

// worstRatio returns the largest Pr[report | v] / Pr[report | v′] over
// every report and every pair of inputs, computed from the parameter
// fields o's Privatize reads, and false for a type it has no row for.
func worstRatio(o Oracle) (float64, bool) {
	switch m := o.(type) {
	case BinaryRR:
		return worstRatio(m.GRR)
	case *GRR:
		// The truth with coin(p), each of the d−1 others uniformly.
		p := coin(m.p)
		return ratio(p, (1-p)/float64(m.d-1)), true
	case *UE:
		// Inputs v and v′ differ in two lanes, each a coin at p under
		// one input and at q under the other.
		return swapped(coin(m.p), coin(m.q)), true
	case *THE:
		// Two lanes differ; each is 1 when its Laplace(b) noise (plus
		// 1 for the true value) exceeds θ.
		return swapped(1-laplaceCDF(m.theta-1, m.b), 1-laplaceCDF(m.theta, m.b)), true
	case *SHE:
		// Two coordinates shift by 1 under Laplace(b) noise.
		return math.Exp(2 / m.b), true
	case *LH:
		// The seed is drawn independently of v; given it, the bucket is
		// GRR over g values.
		p := coin(m.p)
		return ratio(p, (1-p)/float64(m.g-1)), true
	case *HRR:
		// The index is drawn independently of v; the sign is kept with
		// coin(p).
		return ratio(coin(m.p), 1-coin(m.p)), true
	case *SS:
		// A k-subset holding v but not v′ has probability
		// p/C(d−1, k−1) under v and (1−p)/C(d−1, k) under v′; their
		// ratio is p(d−k)/k against 1−p.
		p := coin(m.p)
		k, d := float64(m.k), float64(m.d)
		return ratio(p*(d-k)/k, 1-p), true
	}
	return 0, false
}

// WorstRatio exposes worstRatio to the external test that ranges over
// the mechanisms ldpd serves.
var WorstRatio = worstRatio
