package freq

import (
	"math"

	"repro/internal/ldprand"
	"repro/internal/transform"
)

// HRR is Hadamard randomized response, the Fourier-spreading idea behind
// Apple's HCMS (§1.2(2)): the client picks a uniformly random Hadamard
// coefficient index j, computes the single ±1 entry H[j, v] of its
// value's column, and flips it with probability 1/(e^ε+1). The server
// averages reports into an estimated Fourier spectrum and inverts with
// one fast Walsh–Hadamard transform. The payload is a single bit.
type HRR struct {
	epsilon float64
	d       int // logical domain size
	dd      int // padded power-of-two transform size
	p       float64
	src     ldprand.Source
	coefSum []float64 // per-index sum of debiased ±1 reports
	n       int
}

// HRRReport is the wire format of one Hadamard randomized-response
// report: a coefficient index and a (possibly flipped) sign.
type HRRReport struct {
	Index int
	Sign  int8 // +1 or −1
}

// NewHRR returns a Hadamard randomized-response oracle.
func NewHRR(epsilon float64, d int, src ldprand.Source) *HRR {
	checkParams(epsilon, d)
	dd := transform.NextPow2(d)
	return &HRR{
		epsilon: epsilon,
		d:       d,
		dd:      dd,
		p:       math.Exp(epsilon) / (math.Exp(epsilon) + 1),
		src:     defaultSource(src),
		coefSum: make([]float64, dd),
	}
}

// Name implements Oracle.
func (h *HRR) Name() string { return "HRR" }

// Epsilon implements Oracle.
func (h *HRR) Epsilon() float64 { return h.epsilon }

// Domain implements Oracle.
func (h *HRR) Domain() int { return h.d }

// PaddedDomain returns the power-of-two transform size in use.
func (h *HRR) PaddedDomain() int { return h.dd }

// Privatize picks a random coefficient index and reports the perturbed
// Hadamard entry of the client's value.
func (h *HRR) Privatize(v int) HRRReport {
	checkDomain(v, h.d)
	j := ldprand.Intn(h.src, h.dd)
	sign := int8(1)
	if transform.Entry(j, v) < 0 {
		sign = -1
	}
	if !ldprand.Bernoulli(h.src, h.p) {
		sign = -sign
	}
	return HRRReport{Index: j, Sign: sign}
}

// Aggregate debiases one report (divide by 2p−1) and accumulates it into
// the coefficient sums.
func (h *HRR) Aggregate(r HRRReport) {
	if r.Index < 0 || r.Index >= h.dd {
		panic("freq: HRR report index out of range")
	}
	if r.Sign != 1 && r.Sign != -1 {
		panic("freq: HRR report sign must be ±1")
	}
	h.coefSum[r.Index] += float64(r.Sign) / (2*h.p - 1)
	h.n++
}

// Collect implements Oracle.
func (h *HRR) Collect(v int) { h.Aggregate(h.Privatize(v)) }

// Collected implements Oracle.
func (h *HRR) Collected() int { return h.n }

// EstimateCounts implements Oracle. Each debiased report is an unbiased
// sample of one Fourier coefficient f̂(j) = Σ_v c_v·H[j,v]; averaging
// per index and scaling by dd reconstructs the spectrum, and one inverse
// WHT yields counts.
func (h *HRR) EstimateCounts() []float64 {
	spectrum := make([]float64, h.dd)
	// Each index j was chosen with probability 1/dd, so the sum of
	// debiased reports at j estimates n·(1/dd)·f̂(j)·dd/n ... more
	// directly: E[sum_j] = (n/dd)·f̂(j), hence f̂(j) ≈ sum_j · dd/n and
	// counts = WHT(f̂)/dd. The n and dd factors cancel into:
	copy(spectrum, h.coefSum)
	transform.WHT(spectrum)
	out := make([]float64, h.d)
	for v := 0; v < h.d; v++ {
		out[v] = spectrum[v]
	}
	return out
}

// TheoreticalVariance implements Oracle. For HRR the per-report variance
// of a count estimate is about ((e^ε+1)/(e^ε−1))²·dd/dd... in the f→0
// approximation it is n·(e^ε+1)²/(e^ε−1)², a constant factor worse than
// OLH/OUE, which is the trade it makes for 1-bit reports.
func (h *HRR) TheoreticalVariance(n int) float64 {
	expE := math.Exp(h.epsilon)
	r := (expE + 1) / (expE - 1)
	return float64(n) * r * r
}

// ReportBits implements Oracle: the sign bit plus the coefficient index.
func (h *HRR) ReportBits() int { return 1 + bitsFor(h.dd) }

// Reset implements Oracle.
func (h *HRR) Reset() {
	for i := range h.coefSum {
		h.coefSum[i] = 0
	}
	h.n = 0
}

// Merge implements Oracle: the debiased coefficient sums add.
func (h *HRR) Merge(other Oracle) error {
	o, ok := other.(*HRR)
	if !ok {
		return mergeTypeError(h, other)
	}
	if o.d != h.d || o.epsilon != h.epsilon {
		return mergeParamError(h.Name())
	}
	for i, x := range o.coefSum {
		h.coefSum[i] += x
	}
	h.n += o.n
	return nil
}

// Snapshot implements Oracle.
func (h *HRR) Snapshot() Oracle {
	c := *h
	c.coefSum = append([]float64(nil), h.coefSum...)
	return &c
}
