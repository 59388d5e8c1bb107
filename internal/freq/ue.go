package freq

import (
	"math"

	"repro/internal/bitvec"
	"repro/internal/ldprand"
)

// UE is the unary-encoding family: the client one-hot encodes its value
// as a d-bit vector and perturbs every bit independently, keeping a 1
// with probability p and turning a 0 into a 1 with probability q.
//
// Symmetric UE (SUE, the perturbation inside basic RAPPOR) uses
// p = e^(ε/2)/(e^(ε/2)+1), q = 1−p. Optimized UE (OUE, Wang et al.)
// fixes p = 1/2 and spends the whole budget on protecting zeros,
// q = 1/(e^ε+1), which minimizes estimator variance.
type UE struct {
	name    string
	epsilon float64
	d       int
	p, q    float64
	src     ldprand.Source
	ones    []int // per-position counts of reported 1s
	n       int
}

// NewSUE returns the symmetric unary encoding oracle.
func NewSUE(epsilon float64, d int, src ldprand.Source) *UE {
	checkParams(epsilon, d)
	e2 := math.Exp(epsilon / 2)
	p := e2 / (e2 + 1)
	return newUE("SUE", epsilon, d, p, 1-p, src)
}

// NewOUE returns the optimized unary encoding oracle.
func NewOUE(epsilon float64, d int, src ldprand.Source) *UE {
	checkParams(epsilon, d)
	return newUE("OUE", epsilon, d, 0.5, 1/(math.Exp(epsilon)+1), src)
}

// NewUE returns a unary-encoding oracle with explicit bit-keeping
// probabilities, for ablation experiments over the (p, q) trade-off.
// The pair must satisfy the ε-LDP constraint p(1−q)/(q(1−p)) <= e^ε;
// this is checked and violations panic.
func NewUE(epsilon float64, d int, p, q float64, src ldprand.Source) *UE {
	checkParams(epsilon, d)
	if p <= 0 || p >= 1 || q <= 0 || q >= 1 {
		panic("freq: UE probabilities must be in (0,1)")
	}
	budget := math.Log(p * (1 - q) / (q * (1 - p)))
	if budget > epsilon+1e-9 {
		panic("freq: UE probabilities exceed the epsilon budget")
	}
	return newUE("UE", epsilon, d, p, q, src)
}

func newUE(name string, epsilon float64, d int, p, q float64, src ldprand.Source) *UE {
	return &UE{
		name:    name,
		epsilon: epsilon,
		d:       d,
		p:       p,
		q:       q,
		src:     defaultSource(src),
		ones:    make([]int, d),
	}
}

// Name implements Oracle.
func (u *UE) Name() string { return u.name }

// Epsilon implements Oracle.
func (u *UE) Epsilon() float64 { return u.epsilon }

// Domain implements Oracle.
func (u *UE) Domain() int { return u.d }

// P returns the probability a true 1 bit stays 1.
func (u *UE) P() float64 { return u.p }

// Q returns the probability a true 0 bit flips to 1.
func (u *UE) Q() float64 { return u.q }

// Privatize one-hot encodes v and perturbs every bit.
func (u *UE) Privatize(v int) *bitvec.Vector {
	checkDomain(v, u.d)
	out := bitvec.New(u.d)
	for i := 0; i < u.d; i++ {
		prob := u.q
		if i == v {
			prob = u.p
		}
		if ldprand.Bernoulli(u.src, prob) {
			out.Set(i)
		}
	}
	return out
}

// Aggregate folds one perturbed bit vector into the per-position tallies.
func (u *UE) Aggregate(report *bitvec.Vector) {
	if report.Len() != u.d {
		panic("freq: UE report length mismatch")
	}
	report.AddOnesTo(u.ones)
	u.n++
}

// Collect implements Oracle.
func (u *UE) Collect(v int) { u.Aggregate(u.Privatize(v)) }

// Collected implements Oracle.
func (u *UE) Collected() int { return u.n }

// EstimateCounts implements Oracle: ĉ_v = (ones_v − n·q)/(p − q).
func (u *UE) EstimateCounts() []float64 {
	out := make([]float64, u.d)
	den := u.p - u.q
	for v, c := range u.ones {
		out[v] = (float64(c) - float64(u.n)*u.q) / den
	}
	return out
}

// TheoreticalVariance implements Oracle: n·q(1−q)/(p−q)². For OUE this
// equals n·4e^ε/(e^ε−1)².
func (u *UE) TheoreticalVariance(n int) float64 {
	den := u.p - u.q
	return float64(n) * u.q * (1 - u.q) / (den * den)
}

// ReportBits implements Oracle: one bit per domain value.
func (u *UE) ReportBits() int { return u.d }

// Reset implements Oracle.
func (u *UE) Reset() {
	for i := range u.ones {
		u.ones[i] = 0
	}
	u.n = 0
}

// Merge implements Oracle: per-position tallies add. The (p, q) pair
// must match exactly, which distinguishes SUE from OUE from custom UE
// even at equal ε.
func (u *UE) Merge(other Oracle) error {
	o, ok := other.(*UE)
	if !ok {
		return mergeTypeError(u, other)
	}
	if o.name != u.name || o.d != u.d || o.epsilon != u.epsilon || o.p != u.p || o.q != u.q {
		return mergeParamError(u.name)
	}
	for i, c := range o.ones {
		u.ones[i] += c
	}
	u.n += o.n
	return nil
}

// Snapshot implements Oracle.
func (u *UE) Snapshot() Oracle {
	c := *u
	c.ones = append([]int(nil), u.ones...)
	return &c
}
