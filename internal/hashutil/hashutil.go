// Package hashutil provides the seeded hash families shared by the
// sketching and local-hashing mechanisms.
//
// Optimized Local Hashing (OLH), Bloom filters and the Apple count-mean
// sketch all assume a publicly known family {H_s} of hash functions from
// an item domain into a small range [m], indexed by a seed that travels
// with each report. Byte strings (Hash64) are hashed with FNV-1a and a
// SplitMix64 finalizer; integers (IntHasher) with two SplitMix64
// finalizers keyed by the seed. Both empirically behave as universal
// families for the ranges used in LDP protocols.
//
// The integer hash is wire protocol: a local-hashing client reports a
// bucket the server recomputes, at ingest and at every journal replay.
// Its values are pinned by testdata/golden_hash.txt.
package hashutil

import (
	"encoding/binary"
	"hash/fnv"
	"math/bits"
)

// Hash64 hashes an arbitrary byte string with a 64-bit seed.
func Hash64(seed uint64, data []byte) uint64 {
	h := fnv.New64a()
	var s [8]byte
	binary.LittleEndian.PutUint64(s[:], seed)
	h.Write(s[:])
	h.Write(data)
	return mix64(h.Sum64())
}

// IntHasher is the integer hash under one seed with its seed-dependent
// terms precomputed. A local-hashing server evaluates one report's
// hash on every candidate value, so the loop over candidates should
// pay only for the two mixing rounds and the range reduction.
type IntHasher struct {
	pre, post uint64 // seed + golden ratio; seed with its halves swapped
	m         uint64 // output range of Bucket
}

// NewIntHasher returns the integer hash for seed with Bucket mapping
// into [0, m).
func NewIntHasher(seed uint64, m int) IntHasher {
	return IntHasher{pre: seed + 0x9e3779b97f4a7c15, post: bits.RotateLeft64(seed, 32), m: uint64(m)}
}

// Hash returns the 64-bit hash of item.
func (h IntHasher) Hash(item int) uint64 {
	return mix64(mix64(uint64(item)^h.pre) ^ h.post)
}

// Bucket returns the hash of item reduced to [0, m).
func (h IntHasher) Bucket(item int) int {
	hi, _ := bits.Mul64(h.Hash(item), h.m)
	return int(hi)
}

// Range maps a 64-bit hash onto [0, m) without modulo bias, using the
// multiply-shift reduction.
func Range(h uint64, m int) int {
	hi, _ := bits.Mul64(h, uint64(m))
	return int(hi)
}

// HashIntRange hashes an integer item into [0, m) under the given seed.
func HashIntRange(seed uint64, item, m int) int {
	return NewIntHasher(seed, m).Bucket(item)
}

// HashBytesRange hashes a byte string into [0, m) under the given seed.
func HashBytesRange(seed uint64, data []byte, m int) int {
	return Range(Hash64(seed, data), m)
}

// mix64 is the SplitMix64 finalizer, a strong 64-bit bijective mixer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
