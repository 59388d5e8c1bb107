// Package transform implements the fast Walsh–Hadamard transform (WHT)
// and Fourier-basis helpers.
//
// Two of the surveyed systems rely on spreading signal energy across a
// Fourier (Hadamard) basis: Apple's HCMS sends a single ±1 Hadamard
// coefficient per user (§1.2(2)), and marginal release reconstructs k-way
// marginals from low-order Fourier coefficients (§1.3). Both need only
// the unnormalized transform H_n with entries ±1 and the identity
// H(H(x)) = n·x.
package transform

import "fmt"

// WHT applies the in-place unnormalized fast Walsh–Hadamard transform to
// xs, whose length must be a power of two. Applying it twice multiplies
// the input by len(xs).
func WHT(xs []float64) {
	n := len(xs)
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("transform: length %d is not a power of two", n))
	}
	for h := 1; h < n; h <<= 1 {
		for i := 0; i < n; i += h << 1 {
			for j := i; j < i+h; j++ {
				x, y := xs[j], xs[j+h]
				xs[j], xs[j+h] = x+y, x-y
			}
		}
	}
}

// Inverse applies the inverse transform: WHT followed by division by n.
func Inverse(xs []float64) {
	WHT(xs)
	n := float64(len(xs))
	for i := range xs {
		xs[i] /= n
	}
}

// Entry returns the (row, col) entry of the Hadamard matrix H_n without
// materializing it: (−1)^(popcount(row AND col)).
func Entry(row, col int) float64 {
	if parity(uint(row)&uint(col)) == 1 {
		return -1
	}
	return 1
}

// parity returns popcount(x) mod 2.
func parity(x uint) int {
	x ^= x >> 32
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return int(x & 1)
}

// NextPow2 returns the smallest power of two that is >= n and >= 1.
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Subset enumerates the Fourier basis of d binary attributes: each basis
// function is indexed by a bitmask over attributes. Coefficient returns
// the Fourier coefficient f̂(mask) of an indicator distribution sample x
// (a d-bit record encoded as an integer): (−1)^(popcount(mask AND x)).
// It coincides with Entry but is named for the marginal-release use case.
func Coefficient(mask, record int) float64 { return Entry(mask, record) }

// MasksOfWeightAtMost returns all attribute masks over d attributes with
// Hamming weight <= k, in increasing numeric order. These are exactly the
// coefficients needed to reconstruct all k-way marginals.
func MasksOfWeightAtMost(d, k int) []int {
	var out []int
	for m := 0; m < 1<<uint(d); m++ {
		if popcount(m) <= k {
			out = append(out, m)
		}
	}
	return out
}

// SubmasksOf returns all submasks of mask, including 0 and mask itself,
// in increasing numeric order.
func SubmasksOf(mask int) []int {
	var out []int
	for sub := mask; ; sub = (sub - 1) & mask {
		out = append(out, sub)
		if sub == 0 {
			break
		}
	}
	// The iteration above descends; reverse for increasing order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
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
