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
	counting // p: report the truth; q: report one specific lie
}

// NewGRR returns a generalized randomized response oracle over [0, d).
func NewGRR(epsilon float64, d int, src ldprand.Source) *GRR {
	checkParams(epsilon, d)
	expE := math.Exp(epsilon)
	return &GRR{newCounting("GRR", epsilon, d, expE/(expE+float64(d)-1), 1/(expE+float64(d)-1), src)}
}

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
	g.tally.Cells[report]++
	g.tally.N++
}

// Collect implements Oracle.
func (g *GRR) Collect(v int) { g.Aggregate(g.Privatize(v)) }

// ReportBits implements Oracle: one value in [0, d).
func (g *GRR) ReportBits() int { return bitsFor(g.d) }

// Merge implements Oracle: tallies add component-wise.
func (g *GRR) Merge(other Oracle) error {
	o, ok := other.(*GRR)
	if !ok {
		return mergeTypeError(g, other)
	}
	return g.mergeFrom(&o.counting, true)
}

// Snapshot implements Oracle.
func (g *GRR) Snapshot() Oracle { return g.snapshotGRR() }

func (g *GRR) snapshotGRR() *GRR {
	c := *g
	c.tally = g.tally.Clone()
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
// historical name. Its name is "RR", so neither its state nor its
// tallies mix with a plain d=2 GRR's.
type BinaryRR struct{ *GRR }

// NewBinaryRR returns Warner's randomized response mechanism.
func NewBinaryRR(epsilon float64, src ldprand.Source) BinaryRR {
	g := NewGRR(epsilon, 2, src)
	g.name = "RR"
	return BinaryRR{g}
}

// Merge implements Oracle. Only another BinaryRR merges in: the
// embedded GRR refuses a plain d=2 GRR by name.
func (b BinaryRR) Merge(other Oracle) error {
	if o, ok := other.(BinaryRR); ok {
		other = o.GRR
	}
	return b.GRR.Merge(other)
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
	observedRate := float64(b.tally.Cells[1]) / nf
	est := b.EstimateCounts()[1] / nf
	den := b.p - b.q
	v := observedRate * (1 - observedRate) / (nf * den * den)
	return est, normalCIHalfWidth(v, delta)
}

// normalCIHalfWidth returns the half-width of a two-sided normal
// confidence interval of coverage 1−delta for an estimator of the given
// variance.
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
