// Package telemetry implements Microsoft's repeated-collection system
// (Ding, Kulkarni, Yekhanin, NeurIPS 2017), the third deployment the
// tutorial covers (§1.2(3)): one-bit mean estimation for numeric
// counters and α-point rounding with memoized responses, so that
// collecting every day does not erode the privacy guarantee — the
// "fixed random numbers" idea.
package telemetry

import (
	"fmt"
	"math"

	"repro/internal/ldprand"
)

// MeanParams configures one-bit mean collection of values in [0, Max].
type MeanParams struct {
	Epsilon float64
	Max     float64 // values are clamped to [0, Max]
}

// Validate checks parameter ranges.
func (p MeanParams) Validate() error {
	if p.Epsilon <= 0 || math.IsNaN(p.Epsilon) || math.IsInf(p.Epsilon, 0) {
		return fmt.Errorf("telemetry: epsilon must be positive and finite, got %v", p.Epsilon)
	}
	if p.Max <= 0 {
		return fmt.Errorf("telemetry: Max must be positive, got %v", p.Max)
	}
	return nil
}

// OneBit reports a single bit per user such that the population mean is
// recoverable: the bit is 1 with probability
// 1/(e^ε+1) + (x/Max)·(e^ε−1)/(e^ε+1). A NaN x panics: it has no place
// in [0, Max], and the coin it would give has no defined probability.
func OneBit(p MeanParams, x float64, src ldprand.Source) int {
	if math.IsNaN(x) {
		panic("telemetry: OneBit of NaN")
	}
	if src == nil {
		src = ldprand.NewCrypto()
	}
	x = clamp(x, 0, p.Max)
	e := math.Exp(p.Epsilon)
	prob := 1/(e+1) + (x/p.Max)*(e-1)/(e+1)
	if ldprand.Bernoulli(src, prob) {
		return 1
	}
	return 0
}

// MeanFromBits inverts the one-bit mechanism: given the sum of reported
// bits over n users, it returns the unbiased mean estimate
// Max·(sum·(e^ε+1) − n)/(n·(e^ε−1)).
func MeanFromBits(p MeanParams, bitSum, n int) float64 {
	if n == 0 {
		return 0
	}
	e := math.Exp(p.Epsilon)
	return p.Max * (float64(bitSum)*(e+1) - float64(n)) / (float64(n) * (e - 1))
}

// MeanVariance returns the variance of the mean estimate for n users in
// the worst case (x = Max/2): Max²·(e^ε+1)²/(4n·(e^ε−1)²) at most.
func MeanVariance(p MeanParams, n int) float64 {
	if n == 0 {
		return math.Inf(1)
	}
	e := math.Exp(p.Epsilon)
	r := (e + 1) / (e - 1)
	return p.Max * p.Max * r * r / (4 * float64(n))
}

// MeanCollector aggregates one-bit mean reports.
type MeanCollector struct {
	params MeanParams
	bitSum int
	n      int
}

// NewMeanCollector returns an aggregator for the given parameters.
func NewMeanCollector(params MeanParams) (*MeanCollector, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &MeanCollector{params: params}, nil
}

// Add folds one reported bit in. Bits outside {0, 1} are rejected.
func (m *MeanCollector) Add(bit int) error {
	if bit != 0 && bit != 1 {
		return fmt.Errorf("telemetry: bit must be 0 or 1, got %d", bit)
	}
	m.bitSum += bit
	m.n++
	return nil
}

// Estimate returns the current mean estimate.
func (m *MeanCollector) Estimate() float64 {
	return MeanFromBits(m.params, m.bitSum, m.n)
}

// Collected returns the number of reports.
func (m *MeanCollector) Collected() int { return m.n }

// Client is a memoizing telemetry reporter implementing α-point
// rounding: the user's secret fixes a rounding threshold α·Max and two
// memoized one-bit responses (one for "rounded to 0", one for "rounded
// to Max"). Every report reuses those fixed bits, so an observer of T
// rounds learns no more than from a single round unless the user's
// value crosses the threshold — the exact behaviour E7 demonstrates.
type Client struct {
	params  MeanParams
	alpha   float64 // rounding threshold in [0,1)
	bitLow  int     // memoized response for rounded value 0
	bitHigh int     // memoized response for rounded value Max
}

// NewClient derives a memoizing client from a per-user secret. The
// metric name domain-separates secrets so one user can report several
// counters independently.
func NewClient(params MeanParams, secret []byte, metric string) (*Client, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(secret) == 0 {
		return nil, fmt.Errorf("telemetry: secret must be non-empty")
	}
	alphaSrc := ldprand.Keyed(secret, "telemetry-alpha:"+metric)
	lowSrc := ldprand.Keyed(secret, "telemetry-low:"+metric)
	highSrc := ldprand.Keyed(secret, "telemetry-high:"+metric)
	return &Client{
		params:  params,
		alpha:   ldprand.Float64(alphaSrc),
		bitLow:  OneBit(params, 0, lowSrc),
		bitHigh: OneBit(params, params.Max, highSrc),
	}, nil
}

// Report returns the memoized one-bit report for the current value x.
// α-point rounding sends the "high" response iff x/Max > α; because α
// is uniform, E[rounded] = x, preserving unbiasedness of the mean.
func (c *Client) Report(x float64) int {
	x = clamp(x, 0, c.params.Max)
	if x/c.params.Max > c.alpha {
		return c.bitHigh
	}
	return c.bitLow
}

// NaiveReport re-randomizes on every call (no memoization) — the
// baseline that leaks under repeated collection, used by the E7
// ablation.
func (c *Client) NaiveReport(x float64, src ldprand.Source) int {
	return OneBit(c.params, x, src)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
