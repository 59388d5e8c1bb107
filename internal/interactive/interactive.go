// Package interactive implements multi-round LDP protocols, the first
// open direction the tutorial highlights (§1.4): the aggregator poses
// new queries in light of previous answers, splitting each user's
// budget across rounds.
//
// Quantile search is an interactive bisection over a numeric range.
// Each round asks a fresh user group the threshold question "is your
// value below t?" through randomized response, and the next threshold
// depends on the previous answer — something a single non-interactive
// round cannot do without paying for every possible threshold at once.
//
// RefinementGain is the analytic case for two-phase frequency
// refinement: round one spends half the users on a coarse pass over
// the full domain to find a small candidate set; round two asks the
// remaining users a GRR question restricted to those candidates (plus
// "other"), whose variance depends on the small candidate count rather
// than the full domain size.
package interactive

import (
	"fmt"
	"math"

	"repro/internal/freq"
	"repro/internal/ldprand"
)

// QuantileParams configures interactive quantile search over values in
// [Lo, Hi].
type QuantileParams struct {
	Epsilon float64 // per-user budget (each user answers one round)
	Lo, Hi  float64 // public value range
	Rounds  int     // bisection depth
	Q       float64 // target quantile in (0,1), e.g. 0.5 for the median
}

// Validate checks parameter ranges.
func (p QuantileParams) Validate() error {
	switch {
	case p.Epsilon <= 0 || math.IsNaN(p.Epsilon) || math.IsInf(p.Epsilon, 0):
		return fmt.Errorf("interactive: epsilon must be positive and finite")
	case p.Hi <= p.Lo:
		return fmt.Errorf("interactive: need Lo < Hi, got [%v, %v]", p.Lo, p.Hi)
	case p.Rounds < 1 || p.Rounds > 40:
		return fmt.Errorf("interactive: Rounds must be in [1,40], got %d", p.Rounds)
	case p.Q <= 0 || p.Q >= 1:
		return fmt.Errorf("interactive: Q must be in (0,1), got %v", p.Q)
	}
	return nil
}

// Quantile estimates the Q-quantile of the users' values by
// interactive bisection. Users are partitioned across rounds, so each
// individual answers exactly one randomized threshold question with
// the full budget — the total privacy cost per user stays ε.
func Quantile(params QuantileParams, values []float64, src ldprand.Source) (float64, error) {
	if err := params.Validate(); err != nil {
		return 0, err
	}
	if len(values) == 0 {
		return 0, fmt.Errorf("interactive: no values")
	}
	if src == nil {
		src = ldprand.NewCrypto()
	}
	// Shuffle users into round groups.
	order := ldprand.Perm(src, len(values))
	perRound := len(values) / params.Rounds
	if perRound == 0 {
		return 0, fmt.Errorf("interactive: %d users cannot fill %d rounds", len(values), params.Rounds)
	}

	lo, hi := params.Lo, params.Hi
	for round := 0; round < params.Rounds; round++ {
		t := (lo + hi) / 2
		rr := freq.NewBinaryRR(params.Epsilon, src)
		start := round * perRound
		end := start + perRound
		if round == params.Rounds-1 {
			end = len(values)
		}
		for _, idx := range order[start:end] {
			ans := 0
			if values[idx] < t {
				ans = 1
			}
			rr.Collect(ans)
		}
		below, _ := rr.EstimateProportion(0.05)
		if below < params.Q {
			lo = t
		} else {
			hi = t
		}
	}
	return (lo + hi) / 2, nil
}

// Median estimates the median: Quantile with Q = 1/2.
func Median(epsilon, lo, hi float64, rounds int, values []float64, src ldprand.Source) (float64, error) {
	return Quantile(QuantileParams{Epsilon: epsilon, Lo: lo, Hi: hi, Rounds: rounds, Q: 0.5}, values, src)
}

// RefinementGain returns the analytic variance ratio between a
// single-round full-domain GRR pass with n users and the phase-two
// restricted GRR with n/2 users — the quantity that makes the
// interactive protocol worthwhile for small candidate sets.
func RefinementGain(epsilon float64, domain, candidates, n int) float64 {
	full := freq.NewGRR(epsilon, domain, ldprand.NewSplitMix64(1)).TheoreticalVariance(n)
	restricted := freq.NewGRR(epsilon, candidates+1, ldprand.NewSplitMix64(1)).TheoreticalVariance(n / 2)
	return full / restricted
}
