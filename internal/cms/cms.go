// Package cms implements Apple's locally private frequency estimation
// system (§1.2(2)): the Count-Mean-Sketch (CMS) and its Hadamard
// variant (HCMS), as described in the patent application and the
// "Learning with Privacy at Scale" white paper.
//
// CMS clients pick one of k hash functions at random, one-hot encode
// their value's hash into m positions as a ±1 vector, and flip every
// coordinate independently with probability 1/(1+e^(ε/2)). HCMS sends a
// single ±1 Hadamard coefficient of that one-hot row, flipped with
// probability 1/(1+e^ε), cutting the report to one bit at the price of
// a constant-factor variance increase — the exact trade-off E5
// measures.
package cms

import (
	"fmt"
	"math"

	"repro/internal/hashutil"
	"repro/internal/ldprand"
	"repro/internal/transform"
)

// Params configures a CMS/HCMS deployment.
type Params struct {
	Epsilon float64 // privacy budget per report
	Width   int     // m: counters per hash row (power of two for HCMS)
	Hashes  int     // k: number of hash functions
	Seed    uint64  // shared hash seed
}

// Validate checks parameter ranges; forHadamard additionally requires a
// power-of-two width.
func (p Params) Validate(forHadamard bool) error {
	switch {
	case p.Epsilon <= 0 || math.IsNaN(p.Epsilon) || math.IsInf(p.Epsilon, 0):
		return fmt.Errorf("cms: epsilon must be positive and finite, got %v", p.Epsilon)
	case p.Width < 2:
		return fmt.Errorf("cms: width must be at least 2, got %d", p.Width)
	case p.Hashes < 1:
		return fmt.Errorf("cms: hashes must be at least 1, got %d", p.Hashes)
	}
	if forHadamard && p.Width&(p.Width-1) != 0 {
		return fmt.Errorf("cms: HCMS width must be a power of two, got %d", p.Width)
	}
	return nil
}

// rowSeed derives the seed of hash row j.
func (p Params) rowSeed(j int) uint64 { return p.Seed + uint64(j)*0x9e3779b97f4a7c15 }

// position returns h_j(item) in [0, Width).
func (p Params) position(j int, item []byte) int {
	return hashutil.HashBytesRange(p.rowSeed(j), item, p.Width)
}

// Report is one CMS client report: the chosen hash row and the
// perturbed ±1 vector over the row's m positions, packed as bytes with
// values 0 (for −1) and 1 (for +1).
type Report struct {
	Row  int
	Bits []byte // length Width; 1 encodes +1, 0 encodes −1
}

// Client produces CMS reports.
type Client struct {
	params Params
	flip   float64 // per-coordinate flip probability 1/(1+e^(ε/2))
	src    ldprand.Source
}

// NewClient returns a CMS client. A nil source selects crypto/rand.
func NewClient(params Params, src ldprand.Source) (*Client, error) {
	if err := params.Validate(false); err != nil {
		return nil, err
	}
	if src == nil {
		src = ldprand.NewCrypto()
	}
	return &Client{
		params: params,
		flip:   1 / (1 + math.Exp(params.Epsilon/2)),
		src:    src,
	}, nil
}

// Report privatizes one item.
func (c *Client) Report(item []byte) Report {
	j := ldprand.Intn(c.src, c.params.Hashes)
	pos := c.params.position(j, item)
	bits := make([]byte, c.params.Width)
	for i := range bits {
		truth := byte(0)
		if i == pos {
			truth = 1
		}
		if ldprand.Bernoulli(c.src, c.flip) {
			truth ^= 1
		}
		bits[i] = truth
	}
	return Report{Row: j, Bits: bits}
}

// Server aggregates CMS reports into a debiased sketch.
type Server struct {
	params Params
	cEps   float64 // debiasing constant (e^(ε/2)+1)/(e^(ε/2)−1)
	rows   [][]float64
	n      int
}

// NewServer returns a CMS aggregator.
func NewServer(params Params) (*Server, error) {
	if err := params.Validate(false); err != nil {
		return nil, err
	}
	e2 := math.Exp(params.Epsilon / 2)
	rows := make([][]float64, params.Hashes)
	for i := range rows {
		rows[i] = make([]float64, params.Width)
	}
	return &Server{params: params, cEps: (e2 + 1) / (e2 - 1), rows: rows, n: 0}, nil
}

// Add folds one report into the sketch, debiasing it so every cell is
// an unbiased estimate of the true count landing there.
func (s *Server) Add(r Report) error {
	if r.Row < 0 || r.Row >= s.params.Hashes {
		return fmt.Errorf("cms: row %d out of range [0,%d)", r.Row, s.params.Hashes)
	}
	if len(r.Bits) != s.params.Width {
		return fmt.Errorf("cms: report width %d, want %d", len(r.Bits), s.params.Width)
	}
	k := float64(s.params.Hashes)
	for i, b := range r.Bits {
		v := -1.0
		if b == 1 {
			v = 1
		} else if b != 0 {
			return fmt.Errorf("cms: report bit %d has value %d, want 0 or 1", i, b)
		}
		// Debias: x̃ = k·(c_ε/2·v + 1/2).
		s.rows[r.Row][i] += k * (s.cEps/2*v + 0.5)
	}
	s.n++
	return nil
}

// Collected returns the number of reports aggregated.
func (s *Server) Collected() int { return s.n }

// Estimate returns the unbiased frequency estimate of item:
// (m/(m−1)) · (mean over rows of the item's cell − n/m).
func (s *Server) Estimate(item []byte) float64 {
	m := float64(s.params.Width)
	var sum float64
	for j := 0; j < s.params.Hashes; j++ {
		sum += s.rows[j][s.params.position(j, item)]
	}
	mean := sum / float64(s.params.Hashes)
	return (m / (m - 1)) * (mean - float64(s.n)/m)
}

// TheoreticalVariance returns the approximate variance of a single
// count estimate after n reports. Each user contributes
// (c_ε/2)·(±1) + 1/2 to the estimator through its chosen row, giving
// per-user variance about (c_ε²−1)/4.
func (s *Server) TheoreticalVariance(n int) float64 {
	return float64(n) * (s.cEps*s.cEps - 1) / 4
}

// ReportBits returns the report size in bits: m coordinates.
func (s *Server) ReportBits() int { return s.params.Width }

// HadamardReport is one HCMS report: hash row, coefficient index, and
// the perturbed ±1 coefficient.
type HadamardReport struct {
	Row   int
	Index int
	Sign  int8 // ±1
}

// HadamardClient produces HCMS (one-bit) reports.
type HadamardClient struct {
	params Params
	flip   float64 // 1/(1+e^ε)
	src    ldprand.Source
}

// NewHadamardClient returns an HCMS client; Width must be a power of
// two.
func NewHadamardClient(params Params, src ldprand.Source) (*HadamardClient, error) {
	if err := params.Validate(true); err != nil {
		return nil, err
	}
	if src == nil {
		src = ldprand.NewCrypto()
	}
	return &HadamardClient{
		params: params,
		flip:   1 / (1 + math.Exp(params.Epsilon)),
		src:    src,
	}, nil
}

// Report privatizes one item into a single ±1 coefficient.
func (c *HadamardClient) Report(item []byte) HadamardReport {
	j := ldprand.Intn(c.src, c.params.Hashes)
	pos := c.params.position(j, item)
	l := ldprand.Intn(c.src, c.params.Width)
	sign := int8(1)
	if transform.Entry(l, pos) < 0 {
		sign = -1
	}
	if ldprand.Bernoulli(c.src, c.flip) {
		sign = -sign
	}
	return HadamardReport{Row: j, Index: l, Sign: sign}
}

// HadamardServer aggregates HCMS reports.
type HadamardServer struct {
	params Params
	cEps   float64 // (e^ε+1)/(e^ε−1)
	rows   [][]float64
	n      int
}

// NewHadamardServer returns an HCMS aggregator.
func NewHadamardServer(params Params) (*HadamardServer, error) {
	if err := params.Validate(true); err != nil {
		return nil, err
	}
	e := math.Exp(params.Epsilon)
	rows := make([][]float64, params.Hashes)
	for i := range rows {
		rows[i] = make([]float64, params.Width)
	}
	return &HadamardServer{params: params, cEps: (e + 1) / (e - 1), rows: rows}, nil
}

// Add folds one report into the transformed sketch.
func (s *HadamardServer) Add(r HadamardReport) error {
	if r.Row < 0 || r.Row >= s.params.Hashes {
		return fmt.Errorf("cms: row %d out of range [0,%d)", r.Row, s.params.Hashes)
	}
	if r.Index < 0 || r.Index >= s.params.Width {
		return fmt.Errorf("cms: index %d out of range [0,%d)", r.Index, s.params.Width)
	}
	if r.Sign != 1 && r.Sign != -1 {
		return fmt.Errorf("cms: sign must be ±1, got %d", r.Sign)
	}
	// Debias: the report samples one Hadamard coefficient of the row's
	// one-hot vector. Scaling by k·m·c_ε cancels the 1/(k·m) selection
	// probability and the flip bias, so each accumulated cell is an
	// unbiased estimate of the row's full-population spectrum.
	s.rows[r.Row][r.Index] += float64(s.params.Hashes) * float64(s.params.Width) *
		s.cEps * float64(r.Sign)
	s.n++
	return nil
}

// Collected returns the number of reports aggregated.
func (s *HadamardServer) Collected() int { return s.n }

// Estimate inverts each row's Hadamard spectrum and applies the same
// count-mean debiasing as CMS.
func (s *HadamardServer) Estimate(item []byte) float64 {
	m := float64(s.params.Width)
	var sum float64
	for j := 0; j < s.params.Hashes; j++ {
		spectrum := make([]float64, s.params.Width)
		copy(spectrum, s.rows[j])
		transform.Inverse(spectrum)
		sum += spectrum[s.params.position(j, item)]
	}
	mean := sum / float64(s.params.Hashes)
	return (m / (m - 1)) * (mean - float64(s.n)/m)
}

// ReportBits returns the payload size: 1 sign bit (row and index are
// derivable from shared randomness in a deployment, so the literature
// counts HCMS as a 1-bit mechanism).
func (s *HadamardServer) ReportBits() int { return 1 }

// TheoreticalVariance returns the approximate variance of one count
// estimate after n reports. Each user contributes ±c_ε to the averaged
// estimator, so the per-user variance is about c_ε² — the constant
// factor HCMS pays for one-bit reports.
func (s *HadamardServer) TheoreticalVariance(n int) float64 {
	return float64(n) * s.cEps * s.cEps
}
