// Package cms is the client half of Apple's locally private frequency
// estimation system (§1.2(2)): the Count-Mean-Sketch (CMS) and its
// Hadamard variant (HCMS), as described in the patent application and
// the "Learning with Privacy at Scale" white paper.
//
// CMS clients pick one of k hash functions at random, one-hot encode
// their value's hash into m positions as a ±1 vector, and flip every
// coordinate independently with probability 1/(1+e^(ε/2)). The m flips
// are drawn 64 at a time by ldprand.BernoulliWords, about 7.3 random
// words per 64 coordinates (118.6 a report at m = 1024, against the
// m + 1 a coin per coordinate costs), with each coordinate's law
// unchanged. HCMS sends a
// single ±1 Hadamard coefficient of that one-hot row, flipped with
// probability 1/(1+e^ε), cutting the report to one bit at the price of
// a constant-factor variance increase — the exact trade-off E5
// measures.
//
// The server half is internal/task/cmstask, the sketch task ldpd
// serves: it folds these reports into a sketch.CountMin and answers
// count-mean estimates read at Params.Position.
package cms

import (
	"fmt"
	"math"

	"repro/internal/bitvec"
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

// Position returns h_j(item) in [0, Width): the cell item hashes to in
// row j. Clients one-hot encode at it and the served sketch reads its
// estimate from it, so this is the deployment's one row hash.
func (p Params) Position(j int, item []byte) int {
	return hashutil.HashBytesRange(p.Seed+uint64(j)*0x9e3779b97f4a7c15, item, p.Width)
}

// Report is one CMS client report: the chosen hash row and the
// perturbed ±1 vector over the row's m positions, one bit each: a set
// bit encodes +1, a clear one −1.
type Report struct {
	Row  int
	Bits *bitvec.Vector // length Width
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

// Report privatizes one item: the row's flips, each set with
// probability flip, XORed with the one-hot encoding of the item's
// position.
func (c *Client) Report(item []byte) Report {
	j := ldprand.Intn(c.src, c.params.Hashes)
	pos := c.params.Position(j, item)
	bits := bitvec.New(c.params.Width)
	words := bits.Words()
	ldprand.BernoulliWords(c.src, c.flip, words, c.params.Width)
	words[pos/64] ^= 1 << (pos % 64)
	return Report{Row: j, Bits: bits}
}

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
	pos := c.params.Position(j, item)
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
