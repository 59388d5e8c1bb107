package freq

import (
	"math"

	"repro/internal/ldprand"
)

// GRR is generalized randomized response (a.k.a. direct encoding): the
// client reports its true value with probability p = e^ε/(e^ε+d−1) and
// any other fixed value uniformly otherwise. It generalizes Warner's
// 1965 binary randomized response to a d-ary domain and is the mechanism
// of choice while d is small (d < 3e^ε + 2, the E3 crossover).
type GRR struct {
	epsilon float64
	d       int
	p, q    float64 // report truth w.p. p; each specific lie w.p. q
	src     ldprand.Source
	counts  []int
	n       int
}

// NewGRR returns a generalized randomized response oracle over [0, d).
func NewGRR(epsilon float64, d int, src ldprand.Source) *GRR {
	checkParams(epsilon, d)
	expE := math.Exp(epsilon)
	return &GRR{
		epsilon: epsilon,
		d:       d,
		p:       expE / (expE + float64(d) - 1),
		q:       1 / (expE + float64(d) - 1),
		src:     defaultSource(src),
		counts:  make([]int, d),
	}
}

// Name implements Oracle.
func (g *GRR) Name() string { return "GRR" }

// Epsilon implements Oracle.
func (g *GRR) Epsilon() float64 { return g.epsilon }

// Domain implements Oracle.
func (g *GRR) Domain() int { return g.d }

// P returns the truth-telling probability e^ε/(e^ε+d−1).
func (g *GRR) P() float64 { return g.p }

// Q returns the probability of any one specific lie, 1/(e^ε+d−1).
func (g *GRR) Q() float64 { return g.q }

// Privatize runs the client side: it returns the randomized value the
// user would transmit.
func (g *GRR) Privatize(v int) int {
	checkDomain(v, g.d)
	if ldprand.Bernoulli(g.src, g.p) {
		return v
	}
	// Uniform over the d−1 other values.
	other := ldprand.Intn(g.src, g.d-1)
	if other >= v {
		other++
	}
	return other
}

// Aggregate folds one privatized report into the tally.
func (g *GRR) Aggregate(report int) {
	checkDomain(report, g.d)
	g.counts[report]++
	g.n++
}

// Collect implements Oracle.
func (g *GRR) Collect(v int) { g.Aggregate(g.Privatize(v)) }

// Collected implements Oracle.
func (g *GRR) Collected() int { return g.n }

// EstimateCounts implements Oracle: ĉ_v = (obs_v − n·q) / (p − q).
func (g *GRR) EstimateCounts() []float64 {
	out := make([]float64, g.d)
	den := g.p - g.q
	for v, c := range g.counts {
		out[v] = (float64(c) - float64(g.n)*g.q) / den
	}
	return out
}

// TheoreticalVariance implements Oracle: n·(d−2+e^ε)/(e^ε−1)² in the
// f→0 approximation (Wang et al. 2017, eq. for DE).
func (g *GRR) TheoreticalVariance(n int) float64 {
	expE := math.Exp(g.epsilon)
	return float64(n) * (float64(g.d) - 2 + expE) / ((expE - 1) * (expE - 1))
}

// ReportBits implements Oracle: one value in [0, d).
func (g *GRR) ReportBits() int { return bitsFor(g.d) }

// Reset implements Oracle.
func (g *GRR) Reset() {
	for i := range g.counts {
		g.counts[i] = 0
	}
	g.n = 0
}

// Merge implements Oracle: tallies add component-wise.
func (g *GRR) Merge(other Oracle) error {
	o, ok := other.(*GRR)
	if !ok {
		return mergeTypeError(g, other)
	}
	return g.mergeGRR(o)
}

func (g *GRR) mergeGRR(o *GRR) error {
	if o.d != g.d || o.epsilon != g.epsilon {
		return mergeParamError(g.Name())
	}
	for i, c := range o.counts {
		g.counts[i] += c
	}
	g.n += o.n
	return nil
}

// Snapshot implements Oracle.
func (g *GRR) Snapshot() Oracle { return g.snapshotGRR() }

func (g *GRR) snapshotGRR() *GRR {
	c := *g
	c.counts = append([]int(nil), g.counts...)
	return &c
}

// bitsFor returns ceil(log2(d)), at least 1.
func bitsFor(d int) int {
	bits := 0
	for v := d - 1; v > 0; v >>= 1 {
		bits++
	}
	if bits == 0 {
		bits = 1
	}
	return bits
}

// BinaryRR is Warner's original randomized response over a yes/no
// question (§1.1): answer truthfully with probability e^ε/(e^ε+1). It is
// exactly GRR with d = 2 but is kept as a named type because the
// tutorial introduces it first and example code reads better with the
// historical name.
type BinaryRR struct{ *GRR }

// NewBinaryRR returns Warner's randomized response mechanism.
func NewBinaryRR(epsilon float64, src ldprand.Source) BinaryRR {
	return BinaryRR{NewGRR(epsilon, 2, src)}
}

// Name implements Oracle.
func (BinaryRR) Name() string { return "RR" }

// Merge implements Oracle. Only another BinaryRR merges in: the
// embedded GRR would accept a plain d=2 GRR, but mixing the named
// wrapper with the generic mechanism is almost certainly a bug.
func (b BinaryRR) Merge(other Oracle) error {
	o, ok := other.(BinaryRR)
	if !ok {
		return mergeTypeError(b, other)
	}
	return b.GRR.mergeGRR(o.GRR)
}

// Snapshot implements Oracle.
func (b BinaryRR) Snapshot() Oracle { return BinaryRR{b.GRR.snapshotGRR()} }

// EstimateProportion returns the estimated fraction of "1" answers and
// the half-width of a (1−delta) confidence interval around it, using
// Warner's plug-in variance: the observed response rate r̂ gives
// Var[f̂] = r̂(1−r̂) / (n·(p−q)²), which stays calibrated at every
// frequency (the f→0 approximation badly underestimates it for d=2).
func (b BinaryRR) EstimateProportion(delta float64) (estimate, ci float64) {
	n := b.Collected()
	if n == 0 {
		return 0, math.Inf(1)
	}
	nf := float64(n)
	observedRate := float64(b.counts[1]) / nf
	est := b.EstimateCounts()[1] / nf
	den := b.p - b.q
	v := observedRate * (1 - observedRate) / (nf * den * den)
	return est, normalCIHalfWidth(v, delta)
}

// normalCIHalfWidth mirrors stats.NormalCI without importing the stats
// package (avoiding a dependency cycle for packages that embed oracles).
func normalCIHalfWidth(variance, delta float64) float64 {
	// z for common deltas; falls back to a Chebyshev-style bound.
	var z float64
	switch {
	case delta <= 0.011:
		z = 2.576
	case delta <= 0.051:
		z = 1.96
	case delta <= 0.11:
		z = 1.645
	default:
		z = 1 / math.Sqrt(delta)
	}
	return z * math.Sqrt(variance)
}
