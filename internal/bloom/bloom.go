// Package bloom implements the Bloom filter substrate of Google's RAPPOR
// (§1.2(1)): each client hashes its string value into a short bit array
// with k seeded hash functions before randomizing the bits.
package bloom

import (
	"repro/internal/bitvec"
	"repro/internal/hashutil"
)

// Filter is a Bloom filter over byte-string items with k seeded hash
// functions into m bits. Filters built with the same parameters and seed
// hash identically, which is what RAPPOR decoding requires: the server
// recomputes candidate bit patterns with the clients' public parameters.
type Filter struct {
	m    int
	k    int
	seed uint64
	bits *bitvec.Vector
}

// New returns an empty filter with m bits and k hash functions derived
// from seed. It panics if m or k is not positive.
func New(m, k int, seed uint64) *Filter {
	if m <= 0 || k <= 0 {
		panic("bloom: m and k must be positive")
	}
	return &Filter{m: m, k: k, seed: seed, bits: bitvec.New(m)}
}

// Seed returns the seed the hash functions derive from.
func (f *Filter) Seed() uint64 { return f.seed }

// Positions returns the k bit positions item hashes to, in hash order
// (duplicates possible, as in a standard Bloom filter).
func (f *Filter) Positions(item []byte) []int {
	pos := make([]int, f.k)
	for i := range pos {
		pos[i] = hashutil.HashBytesRange(f.seed+uint64(i)*0x9e3779b97f4a7c15, item, f.m)
	}
	return pos
}

// Add inserts item into the filter.
func (f *Filter) Add(item []byte) {
	for _, p := range f.Positions(item) {
		f.bits.Set(p)
	}
}

// Bits returns the underlying bit vector (not a copy); RAPPOR perturbs
// it in place.
func (f *Filter) Bits() *bitvec.Vector { return f.bits }

// Encode returns the bit vector for a single item without mutating the
// filter, which is the client-side RAPPOR encoding step.
func (f *Filter) Encode(item []byte) *bitvec.Vector {
	v := bitvec.New(f.m)
	for _, p := range f.Positions(item) {
		v.Set(p)
	}
	return v
}
