package freq

import (
	"fmt"

	"repro/internal/ldprand"
	"repro/internal/tally"
)

// counting is what the counting oracles — GRR, the unary encodings,
// THE, local hashing and subset selection — share. Each folds a report
// into a tally of n reports and per-value support counts, and each
// debiases a value's count as (c − n·q)/(p − q), where a report
// supports its own value with probability p and any other value with
// probability q. A mechanism embeds counting and adds only its own
// parameters, its Privatize/Aggregate kernels, ReportBits, and the
// thin Merge, Snapshot and state-codec guards that name its type.
type counting struct {
	name    string
	epsilon float64
	d       int
	p, q    float64
	src     ldprand.Source
	tally   tally.Tally
	// wholeTag marks LH's state layout, which holds the byte wholeFloats
	// between n and the cells (see binary.go).
	wholeTag bool
}

func newCounting(name string, epsilon float64, d int, p, q float64, src ldprand.Source) counting {
	return counting{name: name, epsilon: epsilon, d: d, p: p, q: q, src: defaultSource(src), tally: tally.New(d)}
}

// Name implements Oracle.
func (c *counting) Name() string { return c.name }

// Epsilon implements Oracle.
func (c *counting) Epsilon() float64 { return c.epsilon }

// Domain implements Oracle.
func (c *counting) Domain() int { return c.d }

// Collected implements Oracle.
func (c *counting) Collected() int { return int(c.tally.N) }

// EstimateCounts implements Oracle: ĉ_v = (c_v − n·q)/(p − q).
func (c *counting) EstimateCounts() []float64 { return c.tally.Debias(c.p, c.q) }

// TheoreticalVariance implements Oracle: n·q(1−q)/(p−q)² in the f→0
// approximation. It is Wang et al.'s formula for every counting
// mechanism: n·(d−2+e^ε)/(e^ε−1)² for GRR, n·4e^ε/(e^ε−1)² for OUE and
// for OLH's g = e^ε+1 (whose q is 1/g).
func (c *counting) TheoreticalVariance(n int) float64 {
	den := c.p - c.q
	return float64(n) * c.q * (1 - c.q) / (den * den)
}

// Reset implements Oracle.
func (c *counting) Reset() { c.tally.Reset() }

// mergeFrom folds o's tally into the receiver's. Both must debias alike
// — same name, ε, d and (p, q) — and same is the embedding mechanism's
// verdict on its own parameters (θ, g, k).
func (c *counting) mergeFrom(o *counting, same bool) error {
	if !same || o.name != c.name || o.epsilon != c.epsilon || o.d != c.d || o.p != c.p || o.q != c.q {
		return mergeParamError(c.name)
	}
	if err := c.tally.Merge(o.tally); err != nil {
		return fmt.Errorf("freq: %s merge: %w", c.name, err)
	}
	return nil
}
