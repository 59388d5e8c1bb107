package freq

import (
	"math"

	"repro/internal/hashutil"
	"repro/internal/ldprand"
)

// LH is the local-hashing family: the client draws a public random hash
// function h (identified by a seed) from the domain into [g], applies
// generalized randomized response over the g buckets to h(v), and sends
// (seed, bucket). The server "supports" every candidate value that the
// reported hash maps into the reported bucket.
//
// Binary local hashing (BLH) fixes g = 2 (one payload bit, the
// Bassily–Smith construction); optimized local hashing (OLH, Wang et
// al.) uses g = ⌈e^ε⌉ + 1, matching OUE's variance with only
// log₂(g)-bit payloads. The seed doubles as the per-user randomness that
// Apple/Microsoft-style deployments memoize.
type LH struct {
	// Per-value support tallies. p is the GRR keep-probability over
	// [g]: a report supports its own value with probability p and any
	// other with q = 1/g on average.
	counting
	g int // hash range
}

// LHReport is the wire format of one local-hashing report.
type LHReport struct {
	Seed   uint64 // identifies the hash function the client drew
	Bucket int    // GRR-perturbed h(v) in [0, g)
}

// NewOLH returns the optimized local hashing oracle with g = ⌈e^ε⌉+1.
func NewOLH(epsilon float64, d int, src ldprand.Source) *LH {
	checkParams(epsilon, d)
	g := int(math.Ceil(math.Exp(epsilon))) + 1
	if g < 2 {
		g = 2
	}
	return newLH("OLH", epsilon, d, g, src)
}

// NewBLH returns binary local hashing (g = 2).
func NewBLH(epsilon float64, d int, src ldprand.Source) *LH {
	checkParams(epsilon, d)
	return newLH("BLH", epsilon, d, 2, src)
}

// NewLH returns a local-hashing oracle with an explicit hash range g,
// for the E3 ablation over g. g must be at least 2.
func NewLH(epsilon float64, d, g int, src ldprand.Source) *LH {
	checkParams(epsilon, d)
	if g < 2 {
		panic("freq: LH hash range must be at least 2")
	}
	return newLH("LH", epsilon, d, g, src)
}

func newLH(name string, epsilon float64, d, g int, src ldprand.Source) *LH {
	expE := math.Exp(epsilon)
	l := &LH{counting: newCounting(name, epsilon, d, expE/(expE+float64(g)-1), 1/float64(g), src), g: g}
	l.wholeTag = true
	return l
}

// G returns the hash range.
func (l *LH) G() int { return l.g }

// Privatize draws a fresh hash seed, hashes v into [g] and perturbs the
// bucket with GRR over [g].
func (l *LH) Privatize(v int) LHReport {
	checkDomain(v, l.d)
	seed := l.src.Uint64()
	bucket := hashutil.HashIntRange(seed, v, l.g)
	if !ldprand.Bernoulli(l.src, l.p) {
		other := ldprand.Intn(l.src, l.g-1)
		if other >= bucket {
			other++
		}
		bucket = other
	}
	return LHReport{Seed: seed, Bucket: bucket}
}

// Aggregate adds support to every domain value consistent with the
// report. This is the O(d) step of local hashing (the client side is
// O(1)), and at large d it is what a collector's OLH throughput is:
// one hash per domain cell per report — 7.2 ns a cell in ldpload's
// traced run when every cell rebuilt the seed terms and branched 1-in-g
// on the increment, 2.9 ns with both hoisted out (README, "Fold
// kernels").
func (l *LH) Aggregate(r LHReport) {
	if r.Bucket < 0 || r.Bucket >= l.g {
		panic("freq: LH report bucket out of range")
	}
	h := hashutil.NewIntHasher(r.Seed, l.g)
	support := l.tally.Cells
	for v := range support {
		support[v] += b2i(h.Bucket(v) == r.Bucket)
	}
	l.tally.N++
}

// b2i is 1 for true and 0 for false; the compiler materializes the
// flag instead of branching.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Collect implements Oracle.
func (l *LH) Collect(v int) { l.Aggregate(l.Privatize(v)) }

// ReportBits implements Oracle: a 64-bit seed plus the bucket. The seed
// can be elided when derived from a shared per-user secret, so the
// payload column in E13 reports both; here we count the payload bits
// only, matching how the literature compares communication.
func (l *LH) ReportBits() int { return bitsFor(l.g) }

// Merge implements Oracle: support tallies add component-wise. The
// hash range g must match (it fixes the debiasing constants), and the
// name must match so BLH and an explicit g=2 LH stay distinct.
func (l *LH) Merge(other Oracle) error {
	o, ok := other.(*LH)
	if !ok {
		return mergeTypeError(l, other)
	}
	return l.mergeFrom(&o.counting, o.g == l.g)
}

// Snapshot implements Oracle.
func (l *LH) Snapshot() Oracle {
	c := *l
	c.tally = l.tally.Clone()
	return &c
}
