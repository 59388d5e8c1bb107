package freq

import (
	"math"

	"repro/internal/bitvec"
	"repro/internal/ldprand"
)

// SHE is summation histogram encoding: the client one-hot encodes its
// value and adds independent Laplace(2/ε) noise to every component
// (sensitivity 2 because switching values changes two components by 1).
// The server simply sums the noisy vectors; the sums are already
// unbiased counts. Communication is d floating-point numbers — the
// expensive end of the spectrum in E2.
type SHE struct {
	epsilon float64
	d       int
	b       float64 // Laplace scale 2/ε
	src     ldprand.Source
	sums    []float64
	n       int
}

// NewSHE returns a summation histogram-encoding oracle.
func NewSHE(epsilon float64, d int, src ldprand.Source) *SHE {
	checkParams(epsilon, d)
	return &SHE{
		epsilon: epsilon,
		d:       d,
		b:       2 / epsilon,
		src:     defaultSource(src),
		sums:    make([]float64, d),
	}
}

// Name implements Oracle.
func (s *SHE) Name() string { return "SHE" }

// Epsilon implements Oracle.
func (s *SHE) Epsilon() float64 { return s.epsilon }

// Domain implements Oracle.
func (s *SHE) Domain() int { return s.d }

// Privatize returns the one-hot vector of v plus Laplace(2/ε) noise on
// every component.
func (s *SHE) Privatize(v int) []float64 {
	checkDomain(v, s.d)
	out := make([]float64, s.d)
	for i := range out {
		out[i] = ldprand.Laplace(s.src, s.b)
	}
	out[v]++
	return out
}

// Aggregate folds one noisy vector into the running sums.
func (s *SHE) Aggregate(report []float64) {
	if len(report) != s.d {
		panic("freq: SHE report length mismatch")
	}
	for i, x := range report {
		s.sums[i] += x
	}
	s.n++
}

// Collect implements Oracle.
func (s *SHE) Collect(v int) { s.Aggregate(s.Privatize(v)) }

// Collected implements Oracle.
func (s *SHE) Collected() int { return s.n }

// EstimateCounts implements Oracle: the component sums are unbiased.
func (s *SHE) EstimateCounts() []float64 {
	out := make([]float64, s.d)
	copy(out, s.sums)
	return out
}

// TheoreticalVariance implements Oracle: each report contributes
// Laplace variance 2b² = 8/ε² per component.
func (s *SHE) TheoreticalVariance(n int) float64 {
	return float64(n) * 8 / (s.epsilon * s.epsilon)
}

// ReportBits implements Oracle: d 64-bit floats.
func (s *SHE) ReportBits() int { return 64 * s.d }

// Reset implements Oracle.
func (s *SHE) Reset() {
	for i := range s.sums {
		s.sums[i] = 0
	}
	s.n = 0
}

// Merge implements Oracle: the noisy sums add component-wise.
func (s *SHE) Merge(other Oracle) error {
	o, ok := other.(*SHE)
	if !ok {
		return mergeTypeError(s, other)
	}
	if o.d != s.d || o.epsilon != s.epsilon {
		return mergeParamError(s.Name())
	}
	for i, x := range o.sums {
		s.sums[i] += x
	}
	s.n += o.n
	return nil
}

// Snapshot implements Oracle.
func (s *SHE) Snapshot() Oracle {
	c := *s
	c.sums = append([]float64(nil), s.sums...)
	return &c
}

// THE is thresholded histogram encoding: like SHE, but the client only
// reports which noisy components exceed a threshold θ, turning the
// report into a bit vector. A true 1-component exceeds θ with
// probability p = 1 − F(θ−1), a 0-component with q = 1 − F(θ), where F
// is the Laplace(2/ε) CDF; the usual (c − nq)/(p − q) estimator applies.
// θ is chosen in (1/2, 1) to minimize variance, per Wang et al.
type THE struct {
	counting // per-position counts of reported 1s
	b        float64
	theta    float64
}

// NewTHE returns a thresholded histogram-encoding oracle with the
// variance-optimal threshold found by ternary search over (1/2, 1).
func NewTHE(epsilon float64, d int, src ldprand.Source) *THE {
	checkParams(epsilon, d)
	theta := optimalTheta(epsilon)
	return NewTHEWithThreshold(epsilon, d, theta, src)
}

// NewTHEWithThreshold returns a THE oracle with an explicit threshold,
// for the E2 ablation over θ. The threshold must lie in (0, 1].
func NewTHEWithThreshold(epsilon float64, d int, theta float64, src ldprand.Source) *THE {
	checkParams(epsilon, d)
	if theta <= 0 || theta > 1 {
		panic("freq: THE threshold must be in (0, 1]")
	}
	b := 2 / epsilon
	p, q := 1-laplaceCDF(theta-1, b), 1-laplaceCDF(theta, b)
	return &THE{counting: newCounting("THE", epsilon, d, p, q, src), b: b, theta: theta}
}

// laplaceCDF is the CDF of Laplace(0, b) at x.
func laplaceCDF(x, b float64) float64 {
	if x < 0 {
		return 0.5 * math.Exp(x/b)
	}
	return 1 - 0.5*math.Exp(-x/b)
}

// optimalTheta minimizes q(1−q)/(p−q)² over θ in (1/2, 1) by ternary
// search; the objective is unimodal there.
func optimalTheta(epsilon float64) float64 {
	b := 2 / epsilon
	objective := func(theta float64) float64 {
		p := 1 - laplaceCDF(theta-1, b)
		q := 1 - laplaceCDF(theta, b)
		den := p - q
		return q * (1 - q) / (den * den)
	}
	lo, hi := 0.5, 1.0
	for i := 0; i < 60; i++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if objective(m1) < objective(m2) {
			hi = m2
		} else {
			lo = m1
		}
	}
	return (lo + hi) / 2
}

// Theta returns the threshold in use.
func (t *THE) Theta() float64 { return t.theta }

// Privatize adds Laplace noise to the one-hot encoding of v and
// thresholds it into a bit vector client-side, so only d bits travel.
func (t *THE) Privatize(v int) *bitvec.Vector {
	checkDomain(v, t.d)
	out := bitvec.New(t.d)
	for i := 0; i < t.d; i++ {
		x := ldprand.Laplace(t.src, t.b)
		if i == v {
			x++
		}
		if x > t.theta {
			out.Set(i)
		}
	}
	return out
}

// Aggregate folds one thresholded report into the per-position tallies.
func (t *THE) Aggregate(report *bitvec.Vector) {
	if report.Len() != t.d {
		panic("freq: THE report length mismatch")
	}
	report.AddOnesTo(t.tally.Cells)
	t.tally.N++
}

// Collect implements Oracle.
func (t *THE) Collect(v int) { t.Aggregate(t.Privatize(v)) }

// ReportBits implements Oracle: one bit per domain value.
func (t *THE) ReportBits() int { return t.d }

// Merge implements Oracle: per-position tallies add. The thresholds
// must match, since θ determines the (p, q) debiasing constants.
func (t *THE) Merge(other Oracle) error {
	o, ok := other.(*THE)
	if !ok {
		return mergeTypeError(t, other)
	}
	return t.mergeFrom(&o.counting, o.theta == t.theta)
}

// Snapshot implements Oracle.
func (t *THE) Snapshot() Oracle {
	c := *t
	c.tally = t.tally.Clone()
	return &c
}
