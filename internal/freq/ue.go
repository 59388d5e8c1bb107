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
// A report's d coins cost about 7.3 random words per 64 bits plus one
// (see Privatize), where a coin per bit cost d.
//
// Symmetric UE (SUE, the perturbation inside basic RAPPOR) uses
// p = e^(ε/2)/(e^(ε/2)+1), q = 1−p. Optimized UE (OUE, Wang et al.)
// fixes p = 1/2 and spends the whole budget on protecting zeros,
// q = 1/(e^ε+1), which minimizes estimator variance.
type UE struct {
	counting // per-position counts of reported 1s
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
	return &UE{newCounting(name, epsilon, d, p, q, src)}
}

// Privatize one-hot encodes v and perturbs every bit: every bit is
// drawn at q by ldprand.BernoulliWords, then bit v is drawn again,
// alone, at p.
func (u *UE) Privatize(v int) *bitvec.Vector {
	checkDomain(v, u.d)
	out := bitvec.New(u.d)
	ldprand.BernoulliWords(u.src, u.q, out.Words(), u.d)
	out.SetTo(v, ldprand.Bernoulli(u.src, u.p))
	return out
}

// Aggregate folds one perturbed bit vector into the per-position tallies.
func (u *UE) Aggregate(report *bitvec.Vector) {
	if report.Len() != u.d {
		panic("freq: UE report length mismatch")
	}
	report.AddOnesTo(u.tally.Cells)
	u.tally.N++
}

// Collect implements Oracle.
func (u *UE) Collect(v int) { u.Aggregate(u.Privatize(v)) }

// ReportBits implements Oracle: one bit per domain value.
func (u *UE) ReportBits() int { return u.d }

// Merge implements Oracle: per-position tallies add. The (p, q) pair
// must match exactly, which distinguishes SUE from OUE from custom UE
// even at equal ε.
func (u *UE) Merge(other Oracle) error {
	o, ok := other.(*UE)
	if !ok {
		return mergeTypeError(u, other)
	}
	return u.mergeFrom(&o.counting, true)
}

// Snapshot implements Oracle.
func (u *UE) Snapshot() Oracle {
	c := *u
	c.tally = u.tally.Clone()
	return &c
}
