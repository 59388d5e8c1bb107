// Package heavyhitters identifies frequent items from domains far too
// large to enumerate — the problem behind RAPPOR's unknown-dictionary
// work and Apple's new-words discovery, and a research thread the
// tutorial follows through Bassily–Smith, Qin et al. and Wang et al.
// (§1.2).
//
// Two protocols are supported:
//
//   - PEM, the prefix extending method: items are B-bit strings; user
//     groups reveal progressively longer prefixes through a local-hashing
//     oracle, and only children of surviving prefixes are considered at
//     the next level, keeping every level's candidate set small. This
//     package holds its parameters (PEMParams) and oracle (LHMech); the
//     protocol itself runs in one place, the interactive hh task in
//     internal/task/hhtask that ldpd serves and the experiments drive.
//
//   - SFP, a sequence fragment puzzle in the style of Apple's discovery
//     pipeline: users report one random fragment of their word tagged
//     with a short hash of the whole word; fragments sharing a tag are
//     assembled into candidate words and verified with a second oracle.
//     It has no served form and runs here in batch (FindSFP).
//
// BaselineGRR, the full-domain comparison E6 draws, runs in batch too.
package heavyhitters

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/hashutil"
	"repro/internal/ldprand"
)

// Hit is one discovered heavy hitter with its estimated count.
type Hit struct {
	Value uint64  // the item (bit-string domain)
	Count float64 // estimated number of holders
}

// LHReport is one local-hashing report over an implicit uint64 domain:
// the client's hash seed plus its (randomized) bucket. Given the seed,
// the server can test support of any candidate value, which is what
// lets the protocols query candidate sets chosen after collection.
type LHReport struct {
	Seed   uint64 `json:"seed"`
	Bucket int    `json:"bucket"`
}

// LHMech privatizes uint64 values with OLH and estimates counts over
// explicit candidate sets — the building block BaselineGRR and the
// served multi-round hh task share.
type LHMech struct {
	epsilon float64
	g       int
	p       float64
}

// NewLHMech derives the optimal-local-hashing parameters (bucket count
// g, truth probability p) from the privacy budget.
func NewLHMech(epsilon float64) LHMech {
	g := int(math.Ceil(math.Exp(epsilon))) + 1
	if g < 2 {
		g = 2
	}
	expE := math.Exp(epsilon)
	return LHMech{epsilon: epsilon, g: g, p: expE / (expE + float64(g) - 1)}
}

// G returns the hash bucket count; a report's Bucket is in [0, G).
func (m LHMech) G() int { return m.g }

// Privatize produces the local-hashing report for value v.
func (m LHMech) Privatize(v uint64, src ldprand.Source) LHReport {
	seed := src.Uint64()
	bucket := hashutil.HashIntRange(seed, int(v), m.g)
	if !ldprand.Bernoulli(src, m.p) {
		other := ldprand.Intn(src, m.g-1)
		if other >= bucket {
			other++
		}
		bucket = other
	}
	return LHReport{Seed: seed, Bucket: bucket}
}

// EstimateCounts returns the debiased estimated count of each candidate
// among the reports.
//
// It is the list-based reference implementation: FoldSupport +
// EstimateFromSupport compute the same estimates incrementally from a
// fixed-size accumulator, and because per-report support is a 0/1
// indicator summed exactly (float64 increments from zero are exact
// below 2^53, as is the int64 conversion), the two paths are
// bit-identical for any report multiset in any order.
func (m LHMech) EstimateCounts(reports []LHReport, candidates []uint64) []float64 {
	support := make([]float64, len(candidates))
	for _, r := range reports {
		h := hashutil.NewIntHasher(r.Seed, m.g)
		for i, c := range candidates {
			if h.Bucket(int(c)) == r.Bucket {
				support[i]++
			}
		}
	}
	q := 1 / float64(m.g)
	den := m.p - q
	n := float64(len(reports))
	out := make([]float64, len(candidates))
	for i, s := range support {
		out[i] = (s - n*q) / den
	}
	return out
}

// FoldSupport adds one report's support indicators into the
// per-candidate sums, which must have len(candidates) entries. Folding
// every report of a multiset (in any order — integer addition commutes)
// leaves sums holding exactly the support tallies EstimateCounts
// computes internally, at O(len(candidates)) memory instead of
// O(reports): this is the building block for serving protocols that
// must hold a round's state in constant space however much traffic the
// round absorbs.
func (m LHMech) FoldSupport(r LHReport, candidates []uint64, sums []int64) {
	sums = sums[:len(candidates)] // one bounds check, not one per candidate
	h := hashutil.NewIntHasher(r.Seed, m.g)
	for i, c := range candidates {
		sums[i] += b2i(h.Bucket(int(c)) == r.Bucket)
	}
}

// b2i is 1 for true and 0 for false; the compiler materializes the
// flag instead of branching.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// EstimateFromSupport debiases support sums accumulated by FoldSupport
// over n reports. For sums folded from any n-report multiset the result
// is bit-identical to EstimateCounts over that multiset (see its
// comment for why).
func (m LHMech) EstimateFromSupport(sums []int64, n int) []float64 {
	q := 1 / float64(m.g)
	den := m.p - q
	nf := float64(n)
	out := make([]float64, len(sums))
	for i, s := range sums {
		out[i] = (float64(s) - nf*q) / den
	}
	return out
}

// PEMParams configures the prefix extending method.
type PEMParams struct {
	Epsilon float64 // per-user budget (each user reports once)
	Bits    int     // item length in bits, 1..63
	Levels  int     // number of user groups / prefix stages
	K       int     // heavy hitters to return
	// CandidateBudget caps the surviving prefixes per level. Zero means
	// 2·K, the customary setting.
	CandidateBudget int
}

// Validate checks parameter ranges.
func (p PEMParams) Validate() error {
	switch {
	case p.Epsilon <= 0 || math.IsNaN(p.Epsilon) || math.IsInf(p.Epsilon, 0):
		return fmt.Errorf("heavyhitters: epsilon must be positive and finite")
	case p.Bits < 1 || p.Bits > 63:
		return fmt.Errorf("heavyhitters: Bits must be in [1,63], got %d", p.Bits)
	case p.Levels < 1 || p.Levels > p.Bits:
		return fmt.Errorf("heavyhitters: Levels must be in [1,Bits], got %d", p.Levels)
	case p.K < 1:
		return fmt.Errorf("heavyhitters: K must be positive, got %d", p.K)
	case p.CandidateBudget < 0:
		return fmt.Errorf("heavyhitters: CandidateBudget must be non-negative")
	}
	return nil
}

// Budget returns the effective surviving-candidate cap per level:
// CandidateBudget, or the customary 2·K when unset.
func (p PEMParams) Budget() int {
	if p.CandidateBudget == 0 {
		return 2 * p.K
	}
	return p.CandidateBudget
}

// PrefixLen returns the prefix length examined at level i (0-based),
// spreading Bits evenly across Levels and always ending at Bits.
func (p PEMParams) PrefixLen(i int) int {
	return p.Bits * (i + 1) / p.Levels
}

// BaselineGRR finds heavy hitters by running plain OLH over the whole
// 2^Bits domain — feasible only for small Bits, and the baseline E6
// compares PEM against.
func BaselineGRR(epsilon float64, bits, k int, values []uint64, src ldprand.Source) ([]Hit, error) {
	if bits < 1 || bits > 20 {
		return nil, fmt.Errorf("heavyhitters: baseline requires Bits in [1,20], got %d", bits)
	}
	if src == nil {
		src = ldprand.NewCrypto()
	}
	mech := NewLHMech(epsilon)
	reports := make([]LHReport, len(values))
	for i, v := range values {
		reports[i] = mech.Privatize(v, src)
	}
	d := 1 << uint(bits)
	candidates := make([]uint64, d)
	for i := range candidates {
		candidates[i] = uint64(i)
	}
	counts := mech.EstimateCounts(reports, candidates)
	hits := make([]Hit, 0, k)
	idx := make([]int, d)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return counts[idx[a]] > counts[idx[b]] })
	for i := 0; i < k && i < d; i++ {
		if counts[idx[i]] <= 0 {
			break
		}
		hits = append(hits, Hit{Value: uint64(idx[i]), Count: counts[idx[i]]})
	}
	return hits, nil
}
