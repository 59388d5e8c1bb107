// Package marginal implements locally private release of k-way
// marginals of d-dimensional binary data (§1.3, Cormode–Kulkarni–
// Srivastava): instead of materializing the full 2^d contingency table,
// each user reports one randomly chosen low-order Fourier (Hadamard)
// coefficient of their record's indicator vector; any k-way marginal is
// then reconstructed from the coefficients of its attribute subsets.
//
// Two baselines are included for the E9 comparison: full-domain
// collection (a frequency oracle over all 2^d cells) and direct
// per-marginal collection (the user population split across marginal
// tables).
package marginal

import (
	"fmt"
	"math"

	"repro/internal/freq"
	"repro/internal/ldprand"
	"repro/internal/transform"
)

// FourierParams configures Fourier-basis marginal collection.
type FourierParams struct {
	Epsilon float64
	D       int // number of binary attributes, 1..20
	K       int // maximum marginal order to support, 1..D
}

// Validate checks parameter ranges.
func (p FourierParams) Validate() error {
	switch {
	case p.Epsilon <= 0 || math.IsNaN(p.Epsilon) || math.IsInf(p.Epsilon, 0):
		return fmt.Errorf("marginal: epsilon must be positive and finite")
	case p.D < 1 || p.D > 20:
		return fmt.Errorf("marginal: D must be in [1,20], got %d", p.D)
	case p.K < 1 || p.K > p.D:
		return fmt.Errorf("marginal: K must be in [1,D], got %d", p.K)
	}
	return nil
}

// Fourier collects records and estimates Fourier coefficients of the
// data distribution for all attribute masks of weight at most K.
type Fourier struct {
	params FourierParams
	masks  []int // the coefficient set, weight <= K
	p      float64
	src    ldprand.Source
	sums   []float64 // per-mask sum of debiased ±1 reports
	picks  []int     // per-mask report counts
	n      int
}

// FourierReport is one client report: the mask index (into the public
// mask list) and the perturbed coefficient sign.
type FourierReport struct {
	MaskIndex int
	Sign      int8
}

// NewFourier returns a Fourier marginal collector.
func NewFourier(params FourierParams, src ldprand.Source) (*Fourier, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		src = ldprand.NewCrypto()
	}
	masks := transform.MasksOfWeightAtMost(params.D, params.K)
	return &Fourier{
		params: params,
		masks:  masks,
		p:      math.Exp(params.Epsilon) / (math.Exp(params.Epsilon) + 1),
		src:    src,
		sums:   make([]float64, len(masks)),
		picks:  make([]int, len(masks)),
	}, nil
}

// Masks returns the public coefficient mask list.
func (f *Fourier) Masks() []int { return f.masks }

// Privatize reports one record (a d-bit integer): a random mask is
// chosen and its coefficient sign (−1)^{|mask∩record|} randomized.
func (f *Fourier) Privatize(record int) FourierReport {
	f.checkRecord(record)
	idx := ldprand.Intn(f.src, len(f.masks))
	sign := int8(1)
	if transform.Coefficient(f.masks[idx], record) < 0 {
		sign = -1
	}
	if !ldprand.Bernoulli(f.src, f.p) {
		sign = -sign
	}
	return FourierReport{MaskIndex: idx, Sign: sign}
}

// Aggregate folds one report in.
func (f *Fourier) Aggregate(r FourierReport) {
	if r.MaskIndex < 0 || r.MaskIndex >= len(f.masks) {
		panic(fmt.Sprintf("marginal: mask index %d out of range", r.MaskIndex))
	}
	if r.Sign != 1 && r.Sign != -1 {
		panic("marginal: sign must be ±1")
	}
	f.sums[r.MaskIndex] += float64(r.Sign) / (2*f.p - 1)
	f.picks[r.MaskIndex]++
	f.n++
}

// Collect privatizes and aggregates in one step.
func (f *Fourier) Collect(record int) { f.Aggregate(f.Privatize(record)) }

// Collected returns the number of reports aggregated.
func (f *Fourier) Collected() int { return f.n }

// Coefficients returns the estimated Fourier coefficients
// f̂(mask) = E[(−1)^{|mask∩x|}] for every mask in Masks(), i.e. the
// expectation under the data distribution (so f̂(0) = 1).
func (f *Fourier) Coefficients() map[int]float64 {
	out := make(map[int]float64, len(f.masks))
	for i, mask := range f.masks {
		if f.picks[i] == 0 {
			out[mask] = 0
			continue
		}
		out[mask] = f.sums[i] / float64(f.picks[i])
	}
	if _, ok := out[0]; ok {
		out[0] = 1 // the empty coefficient is exactly 1 by definition
	}
	return out
}

// Marginal reconstructs the marginal table of the attribute set given
// by mask (weight must be <= K): a table of probabilities indexed by
// the 2^|mask| assignments of those attributes, in the order produced
// by enumerating assignment bits along the mask's set bits (lowest
// attribute = bit 0 of the assignment index).
func (f *Fourier) Marginal(mask int) ([]float64, error) {
	if popcount(mask) > f.params.K {
		return nil, fmt.Errorf("marginal: mask weight %d exceeds K=%d", popcount(mask), f.params.K)
	}
	if mask < 0 || mask >= 1<<uint(f.params.D) {
		return nil, fmt.Errorf("marginal: mask %d out of range", mask)
	}
	coefs := f.Coefficients()
	return reconstructMarginal(mask, coefs), nil
}

// reconstructMarginal computes P[assignment t of the attributes in
// mask] = 2^{-|mask|} Σ_{S ⊆ mask} f̂(S)·(−1)^{|S ∩ t|}, where t is
// expanded onto the mask's attribute positions.
func reconstructMarginal(mask int, coefs map[int]float64) []float64 {
	attrs := bitsOf(mask)
	k := len(attrs)
	size := 1 << uint(k)
	table := make([]float64, size)
	subs := transform.SubmasksOf(mask)
	for t := 0; t < size; t++ {
		// Expand assignment t onto the attribute positions.
		full := 0
		for bi, attr := range attrs {
			if t&(1<<uint(bi)) != 0 {
				full |= 1 << uint(attr)
			}
		}
		var sum float64
		for _, s := range subs {
			sum += coefs[s] * transform.Coefficient(s, full)
		}
		table[t] = sum / float64(size)
	}
	return table
}

func (f *Fourier) checkRecord(record int) {
	if record < 0 || record >= 1<<uint(f.params.D) {
		panic(fmt.Sprintf("marginal: record %d outside %d-attribute domain", record, f.params.D))
	}
}

// TrueMarginal computes the exact marginal table of mask over raw
// records, for ground truth in experiments.
func TrueMarginal(mask, d int, records []int) []float64 {
	attrs := bitsOf(mask)
	size := 1 << uint(len(attrs))
	table := make([]float64, size)
	if len(records) == 0 {
		return table
	}
	for _, rec := range records {
		t := 0
		for bi, attr := range attrs {
			if rec&(1<<uint(attr)) != 0 {
				t |= 1 << uint(bi)
			}
		}
		table[t]++
	}
	for i := range table {
		table[i] /= float64(len(records))
	}
	return table
}

// FullMaterialization is the first baseline: collect the whole 2^d
// histogram with a frequency oracle, then project marginals from it.
type FullMaterialization struct {
	d      int
	oracle freq.Oracle
}

// NewFullMaterialization builds the baseline (d <= 16 keeps the 2^d
// domain tractable).
func NewFullMaterialization(epsilon float64, d int, src ldprand.Source) (*FullMaterialization, error) {
	if d < 1 || d > 16 {
		return nil, fmt.Errorf("marginal: full materialization requires D in [1,16], got %d", d)
	}
	return &FullMaterialization{d: d, oracle: freq.NewOLH(epsilon, 1<<uint(d), src)}, nil
}

// Collect reports one record.
func (fm *FullMaterialization) Collect(record int) { fm.oracle.Collect(record) }

// Collected returns the report count.
func (fm *FullMaterialization) Collected() int { return fm.oracle.Collected() }

// Marginal projects the marginal of mask from the estimated full
// histogram.
func (fm *FullMaterialization) Marginal(mask int) []float64 {
	counts := fm.oracle.EstimateCounts()
	attrs := bitsOf(mask)
	size := 1 << uint(len(attrs))
	table := make([]float64, size)
	var total float64
	for rec, c := range counts {
		t := 0
		for bi, attr := range attrs {
			if rec&(1<<uint(attr)) != 0 {
				t |= 1 << uint(bi)
			}
		}
		table[t] += c
		total += c
	}
	if total > 0 {
		for i := range table {
			table[i] /= total
		}
	}
	return table
}

// Direct is the second baseline: the population is split evenly across
// the target marginal tables, each group reporting its projected
// record through GRR over the 2^k assignments.
type Direct struct {
	d       int
	masks   []int
	oracles []freq.Oracle
	src     ldprand.Source
	next    int
}

// NewDirect builds the baseline for an explicit set of marginal masks.
func NewDirect(epsilon float64, d int, masks []int, src ldprand.Source) (*Direct, error) {
	if len(masks) == 0 {
		return nil, fmt.Errorf("marginal: Direct needs at least one mask")
	}
	if src == nil {
		src = ldprand.NewCrypto()
	}
	oracles := make([]freq.Oracle, len(masks))
	for i, m := range masks {
		k := popcount(m)
		if k < 1 {
			return nil, fmt.Errorf("marginal: Direct mask %d is empty", m)
		}
		oracles[i] = freq.NewGRR(epsilon, 1<<uint(k), src)
	}
	return &Direct{d: d, masks: masks, oracles: oracles, src: src}, nil
}

// Collect assigns the user to the next marginal group round-robin and
// reports the record's projection.
func (dr *Direct) Collect(record int) {
	i := dr.next % len(dr.masks)
	dr.next++
	attrs := bitsOf(dr.masks[i])
	t := 0
	for bi, attr := range attrs {
		if record&(1<<uint(attr)) != 0 {
			t |= 1 << uint(bi)
		}
	}
	dr.oracles[i].Collect(t)
}

// Marginal returns the estimated table of the i-th configured mask,
// normalized to probabilities.
func (dr *Direct) Marginal(i int) []float64 {
	counts := dr.oracles[i].EstimateCounts()
	var total float64
	for _, c := range counts {
		if c > 0 {
			total += c
		}
	}
	out := make([]float64, len(counts))
	if total == 0 {
		return out
	}
	for j, c := range counts {
		if c > 0 {
			out[j] = c / total
		}
	}
	return out
}

func bitsOf(mask int) []int {
	var out []int
	for b := 0; mask != 0; b++ {
		if mask&1 != 0 {
			out = append(out, b)
		}
		mask >>= 1
	}
	return out
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}
