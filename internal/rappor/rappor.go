// Package rappor implements Google's RAPPOR (Randomized Aggregatable
// Privacy-Preserving Ordinal Response, Erlingsson et al., CCS 2014), the
// first large-scale LDP deployment the tutorial covers (§1.2(1)).
//
// A client Bloom-encodes its string value into m bits with k hash
// functions (cohort-specific, so hash collisions differ across cohorts),
// applies a *permanent* randomized response once per value (memoized
// against averaging attacks over repeated reports), and then a fresh
// *instantaneous* randomized response on every report. The server tallies
// reported bits per cohort, debiases them into estimated Bloom-bit
// counts, and decodes candidate-string frequencies by regularized least
// squares against the candidates' known bit patterns.
package rappor

import (
	"fmt"
	"math"

	"repro/internal/bitvec"
	"repro/internal/bloom"
	"repro/internal/ldprand"
)

// Params configures a RAPPOR deployment. All clients and the server
// must agree on it.
type Params struct {
	BloomBits int     // m: Bloom filter size in bits
	Hashes    int     // k: hash functions per Bloom filter
	Cohorts   int     // number of cohorts (hash groups)
	F         float64 // permanent response noise, in [0, 1)
	P         float64 // Pr[report 1 | permanent bit 0]
	Q         float64 // Pr[report 1 | permanent bit 1]
	Seed      uint64  // base hash seed shared by clients and server
}

// DefaultParams mirrors the Chrome deployment's shape: 128-bit filters,
// 2 hashes, 8 cohorts, f = 1/2, p = 1/2, q = 3/4.
func DefaultParams() Params {
	return Params{BloomBits: 128, Hashes: 2, Cohorts: 8, F: 0.5, P: 0.5, Q: 0.75, Seed: 0x5ad5}
}

// Validate checks the parameter ranges.
func (p Params) Validate() error {
	switch {
	case p.BloomBits <= 0:
		return fmt.Errorf("rappor: BloomBits must be positive, got %d", p.BloomBits)
	case p.Hashes <= 0:
		return fmt.Errorf("rappor: Hashes must be positive, got %d", p.Hashes)
	case p.Cohorts <= 0:
		return fmt.Errorf("rappor: Cohorts must be positive, got %d", p.Cohorts)
	case p.F < 0 || p.F >= 1:
		return fmt.Errorf("rappor: F must be in [0,1), got %v", p.F)
	case p.P < 0 || p.P > 1 || p.Q < 0 || p.Q > 1:
		return fmt.Errorf("rappor: P and Q must be in [0,1]")
	case p.P == p.Q:
		return fmt.Errorf("rappor: P and Q must differ")
	}
	return nil
}

// PermanentEpsilon returns the ε guarantee of the permanent response
// (the long-term bound): 2k·ln((1−f/2)/(f/2)). F = 0 means no permanent
// noise and an unbounded epsilon.
func (p Params) PermanentEpsilon() float64 {
	if p.F == 0 {
		return math.Inf(1)
	}
	return 2 * float64(p.Hashes) * math.Log((1-p.F/2)/(p.F/2))
}

// cohortSeed derives the Bloom hash seed of a cohort.
func (p Params) cohortSeed(cohort int) uint64 {
	return p.Seed + uint64(cohort)*0x9e3779b97f4a7c15
}

// filter returns the Bloom filter geometry of a cohort.
func (p Params) filter(cohort int) *bloom.Filter {
	return bloom.New(p.BloomBits, p.Hashes, p.cohortSeed(cohort))
}

// Report is one client report: the cohort plus the doubly randomized
// Bloom bits.
type Report struct {
	Cohort int
	Bits   *bitvec.Vector
}

// Client is one RAPPOR reporter. It memoizes permanent responses per
// value, keyed by a per-user secret, exactly as deployed clients must:
// regenerating the permanent noise on every report would let the server
// average it away.
type Client struct {
	params    Params
	cohort    int
	secret    []byte
	src       ldprand.Source
	permanent map[string]*bitvec.Vector
}

// NewClient returns a client assigned to a uniformly random cohort. A
// nil source selects crypto/rand; the secret drives memoized permanent
// responses and must be stable for the client's lifetime.
func NewClient(params Params, secret []byte, src ldprand.Source) (*Client, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(secret) == 0 {
		return nil, fmt.Errorf("rappor: client secret must be non-empty")
	}
	if src == nil {
		src = ldprand.NewCrypto()
	}
	return &Client{
		params:    params,
		cohort:    ldprand.Intn(src, params.Cohorts),
		secret:    secret,
		src:       src,
		permanent: make(map[string]*bitvec.Vector),
	}, nil
}

// permanentBits returns the memoized permanent randomized response for
// value, computing it on first use with randomness derived from the
// client secret (so it also survives client restarts).
func (c *Client) permanentBits(value string) *bitvec.Vector {
	if b, ok := c.permanent[value]; ok {
		return b
	}
	encoded := c.params.filter(c.cohort).Encode([]byte(value))
	keyed := ldprand.Keyed(c.secret, "rappor-prr:"+value)
	out := bitvec.New(c.params.BloomBits)
	for i := 0; i < c.params.BloomBits; i++ {
		u := ldprand.Float64(keyed)
		switch {
		case u < c.params.F/2:
			out.Set(i) // forced 1
		case u < c.params.F:
			// forced 0: leave clear
		default:
			out.SetTo(i, encoded.Get(i))
		}
	}
	c.permanent[value] = out
	return out
}

// Report produces one instantaneous report for value: bit i is 1 with
// probability Q where the permanent response has a 1 and P where it has
// a 0. Both masks are drawn whole by ldprand.BernoulliWords, and the
// permanent bits select between them.
func (c *Client) Report(value string) Report {
	perm := c.permanentBits(value).Words()
	out := bitvec.New(c.params.BloomBits)
	words := out.Words()
	atP := make([]uint64, len(words))
	ldprand.BernoulliWords(c.src, c.params.P, atP, c.params.BloomBits)
	ldprand.BernoulliWords(c.src, c.params.Q, words, c.params.BloomBits)
	for i, p := range atP {
		words[i] = words[i]&perm[i] | p&^perm[i]
	}
	return Report{Cohort: c.cohort, Bits: out}
}

// Server aggregates RAPPOR reports and decodes candidate frequencies.
type Server struct {
	params Params
	ones   [][]int // [cohort][bit] count of reported 1s
	counts []int   // reports per cohort
}

// NewServer returns an aggregator for the given parameters.
func NewServer(params Params) (*Server, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	ones := make([][]int, params.Cohorts)
	for i := range ones {
		ones[i] = make([]int, params.BloomBits)
	}
	return &Server{params: params, ones: ones, counts: make([]int, params.Cohorts)}, nil
}

// Add folds one report into the tallies.
func (s *Server) Add(r Report) error {
	if r.Cohort < 0 || r.Cohort >= s.params.Cohorts {
		return fmt.Errorf("rappor: cohort %d out of range [0,%d)", r.Cohort, s.params.Cohorts)
	}
	if r.Bits == nil || r.Bits.Len() != s.params.BloomBits {
		return fmt.Errorf("rappor: report bits must have length %d", s.params.BloomBits)
	}
	for _, i := range r.Bits.Ones() {
		s.ones[r.Cohort][i]++
	}
	s.counts[r.Cohort]++
	return nil
}

// Collected returns the total number of reports across cohorts.
func (s *Server) Collected() int {
	total := 0
	for _, c := range s.counts {
		total += c
	}
	return total
}

// EstimateBitCounts debiases the per-cohort tallies into estimates of
// how many cohort members had each Bloom bit truly set. With
// pStar = Pr[1 | true bit 1] and qStar = Pr[1 | true bit 0]:
// t̂ = (ones − qStar·n) / (pStar − qStar).
func (s *Server) EstimateBitCounts() [][]float64 {
	f, p, q := s.params.F, s.params.P, s.params.Q
	pStar := (1-f/2)*q + (f/2)*p
	qStar := (f/2)*q + (1-f/2)*p
	out := make([][]float64, s.params.Cohorts)
	for ch := range out {
		row := make([]float64, s.params.BloomBits)
		n := float64(s.counts[ch])
		for bit, y := range s.ones[ch] {
			row[bit] = (float64(y) - qStar*n) / (pStar - qStar)
		}
		out[ch] = row
	}
	return out
}

// Decode estimates how many reporters hold each candidate string, by
// ridge-regularized least squares of the estimated bit counts against
// each candidate's known Bloom pattern, stacked across cohorts.
// Negative solutions are clamped to zero (post-processing).
func (s *Server) Decode(candidates []string) map[string]float64 {
	nc := len(candidates)
	out := make(map[string]float64, nc)
	if nc == 0 {
		return out
	}
	rows := s.params.Cohorts * s.params.BloomBits
	// Design matrix X: rows = (cohort, bit), cols = candidates; X[r][c] =
	// 1 if candidate c sets that bit in that cohort. Cohort sizes scale
	// each candidate's contribution: a candidate held by t users in
	// cohort j contributes t·(share of cohort j). We solve for the
	// per-cohort share jointly by assuming users are spread evenly, the
	// approximation the original paper also makes before cohort
	// reweighting.
	x := make([][]float64, rows)
	y := make([]float64, rows)
	bitCounts := s.EstimateBitCounts()
	total := s.Collected()
	for ch := 0; ch < s.params.Cohorts; ch++ {
		filter := s.params.filter(ch)
		cohortShare := 0.0
		if total > 0 {
			cohortShare = float64(s.counts[ch]) / float64(total)
		}
		patterns := make([]*bitvec.Vector, nc)
		for c, cand := range candidates {
			patterns[c] = filter.Encode([]byte(cand))
		}
		for bit := 0; bit < s.params.BloomBits; bit++ {
			r := ch*s.params.BloomBits + bit
			row := make([]float64, nc)
			for c := range candidates {
				if patterns[c].Get(bit) {
					row[c] = cohortShare
				}
			}
			x[r] = row
			y[r] = bitCounts[ch][bit]
		}
	}
	w := ridgeSolve(x, y, 1e-3)
	for c, cand := range candidates {
		v := w[c]
		if v < 0 {
			v = 0
		}
		out[cand] = v
	}
	return out
}

// TopK decodes the candidates and returns the k highest-estimate
// strings in decreasing order.
func (s *Server) TopK(candidates []string, k int) []string {
	est := s.Decode(candidates)
	type kv struct {
		name  string
		count float64
	}
	list := make([]kv, 0, len(est))
	for name, count := range est {
		list = append(list, kv{name, count})
	}
	// Insertion sort by count descending, name ascending for ties:
	// candidate lists are small, and determinism matters for tests.
	for i := 1; i < len(list); i++ {
		for j := i; j > 0; j-- {
			a, b := list[j-1], list[j]
			if b.count > a.count || (b.count == a.count && b.name < a.name) {
				list[j-1], list[j] = b, a
			} else {
				break
			}
		}
	}
	if k > len(list) {
		k = len(list)
	}
	names := make([]string, k)
	for i := 0; i < k; i++ {
		names[i] = list[i].name
	}
	return names
}
