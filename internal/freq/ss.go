package freq

import (
	"math"

	"repro/internal/ldprand"
)

// SS is the subset-selection mechanism (Ye–Barg; compared alongside
// the Wang et al. family): the client reports a random k-subset of the
// domain that contains the true value with probability
// p = e^ε·k / (e^ε·k + d − k), with k ≈ d/(e^ε+1). Subset selection is
// asymptotically optimal for small ε, at the cost of k·log₂(d)-bit
// reports.
type SS struct {
	// Per-value support tallies. p = Pr[true value included],
	// q = Pr[any other fixed value included].
	counting
	k int
}

// NewSS returns a subset-selection oracle with the variance-optimal
// subset size k = max(1, round(d/(e^ε+1))).
func NewSS(epsilon float64, d int, src ldprand.Source) *SS {
	checkParams(epsilon, d)
	k := int(math.Round(float64(d) / (math.Exp(epsilon) + 1)))
	if k < 1 {
		k = 1
	}
	if k >= d {
		k = d - 1
	}
	return NewSSWithK(epsilon, d, k, src)
}

// NewSSWithK returns a subset-selection oracle with an explicit subset
// size, for ablations. k must be in [1, d).
func NewSSWithK(epsilon float64, d, k int, src ldprand.Source) *SS {
	checkParams(epsilon, d)
	if k < 1 || k >= d {
		panic("freq: SS subset size must be in [1, d)")
	}
	expE := math.Exp(epsilon)
	kf, df := float64(k), float64(d)
	p := expE * kf / (expE*kf + df - kf)
	// Pr[u in S | true != u] = p·(k−1)/(d−1) + (1−p)·k/(d−1).
	q := (p*(kf-1) + (1-p)*kf) / (df - 1)
	return &SS{counting: newCounting("SS", epsilon, d, p, q, src), k: k}
}

// K returns the subset size.
func (s *SS) K() int { return s.k }

// Privatize reports a random k-subset (sorted ascending): with
// probability p the true value plus k−1 uniform others, otherwise k
// uniform values excluding the truth.
func (s *SS) Privatize(v int) []int {
	checkDomain(v, s.d)
	include := ldprand.Bernoulli(s.src, s.p)
	need := s.k
	out := make([]int, 0, s.k)
	if include {
		out = append(out, v)
		need--
	}
	// Reservoir-free uniform sample of `need` values from [0,d)\{v}.
	chosen := make(map[int]bool, need)
	for len(chosen) < need {
		u := ldprand.Intn(s.src, s.d-1)
		if u >= v {
			u++
		}
		chosen[u] = true
	}
	for u := range chosen {
		out = append(out, u)
	}
	sortInts(out)
	return out
}

// Aggregate folds one subset report into the support tallies. Reports
// must be k distinct in-domain values.
func (s *SS) Aggregate(report []int) {
	if len(report) != s.k {
		panic("freq: SS report size mismatch")
	}
	seen := make(map[int]bool, s.k)
	for _, u := range report {
		checkDomain(u, s.d)
		if seen[u] {
			panic("freq: SS report has duplicate values")
		}
		seen[u] = true
		s.tally.Cells[u]++
	}
	s.tally.N++
}

// Collect implements Oracle.
func (s *SS) Collect(v int) { s.Aggregate(s.Privatize(v)) }

// ReportBits implements Oracle: k values of log₂(d) bits.
func (s *SS) ReportBits() int { return s.k * bitsFor(s.d) }

// Merge implements Oracle: support tallies add component-wise. The
// subset size k must match since it fixes (p, q).
func (s *SS) Merge(other Oracle) error {
	o, ok := other.(*SS)
	if !ok {
		return mergeTypeError(s, other)
	}
	return s.mergeFrom(&o.counting, o.k == s.k)
}

// Snapshot implements Oracle.
func (s *SS) Snapshot() Oracle {
	c := *s
	c.tally = s.tally.Clone()
	return &c
}

// sortInts is an insertion sort: subset sizes are small and this keeps
// the package free of a sort dependency on the hot path.
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
