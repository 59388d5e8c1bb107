// Package ldprand supplies the randomness kernel used by every LDP
// mechanism in this repository.
//
// Local differential privacy rests entirely on the quality of each user's
// local coin flips, so the default source is backed by crypto/rand. For
// simulations and deterministic tests the package also provides fast
// seedable generators (SplitMix64, PCG64) and a keyed source derived from
// SHA-256, which is what the Microsoft-style memoization needs: the same
// (secret, value) pair must always yield the same "fresh" randomness.
package ldprand

import (
	"bufio"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/bits"
	"sync"
)

// Source is a stream of uniform random 64-bit words. Implementations need
// not be safe for concurrent use; give each simulated user its own Source.
type Source interface {
	Uint64() uint64
}

// Crypto is a Source backed by crypto/rand with buffering. It is safe for
// concurrent use. Reads that fail panic: an LDP client that cannot obtain
// randomness must not send anything at all, so there is no meaningful way
// to continue.
type Crypto struct {
	mu sync.Mutex
	r  *bufio.Reader
}

// NewCrypto returns a buffered CSPRNG source.
func NewCrypto() *Crypto {
	return &Crypto{r: bufio.NewReaderSize(rand.Reader, 4096)}
}

// Uint64 returns a uniformly random 64-bit word from the system CSPRNG.
func (c *Crypto) Uint64() uint64 {
	var buf [8]byte
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.r.Read(buf[:]); err != nil {
		panic("ldprand: crypto/rand failed: " + err.Error())
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// SplitMix64 is a tiny, fast, seedable generator (Steele et al.). It is
// used to fan out seeds and as the deterministic source in tests. The zero
// value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a deterministic source with the given seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 advances the generator and returns the next word.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// PCG64 is a permuted congruential generator (PCG-XSL-RR 128/64,
// O'Neill 2014) offering a longer period than SplitMix64 for large
// simulations while remaining allocation free.
type PCG64 struct {
	hi, lo uint64
}

// NewPCG64 returns a PCG64 seeded from two words. Matching seeds produce
// matching streams.
func NewPCG64(seedHi, seedLo uint64) *PCG64 {
	p := &PCG64{hi: seedHi, lo: seedLo}
	p.Uint64() // decorrelate the first output from the raw seed
	return p
}

// Uint64 advances the 128-bit LCG state and returns a permuted output.
func (p *PCG64) Uint64() uint64 {
	const mulHi, mulLo = 2549297995355413924, 4865540595714422341
	const incHi, incLo = 6364136223846793005, 1442695040888963407

	// 128-bit multiply-add: state = state*mul + inc.
	hi, lo := p.hi, p.lo
	carryHi, carryLo := bits.Mul64(lo, mulLo)
	carryHi += hi*mulLo + lo*mulHi
	lo2 := carryLo + incLo
	hi2 := carryHi + incHi
	if lo2 < carryLo {
		hi2++
	}
	p.hi, p.lo = hi2, lo2

	// XSL-RR output permutation.
	xored := hi2 ^ lo2
	rot := uint(hi2 >> 58)
	return xored>>rot | xored<<((64-rot)&63)
}

// Keyed returns a deterministic Source derived from a secret key and a
// context string via SHA-256. It implements the "fixed random numbers"
// that Microsoft's telemetry memoization requires: a user holding key
// secret always produces the same randomness for the same context, which
// prevents averaging attacks over repeated collection rounds.
func Keyed(secret []byte, context string) Source {
	h := sha256.New()
	h.Write(secret)
	h.Write([]byte{0}) // domain-separate key from context
	h.Write([]byte(context))
	sum := h.Sum(nil)
	return NewPCG64(
		binary.LittleEndian.Uint64(sum[0:8]),
		binary.LittleEndian.Uint64(sum[8:16]),
	)
}

// NewSecret returns a fresh 32-byte user secret from the system CSPRNG.
func NewSecret() []byte {
	buf := make([]byte, 32)
	if _, err := rand.Read(buf); err != nil {
		panic("ldprand: crypto/rand failed: " + err.Error())
	}
	return buf
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func Float64(s Source) float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bernoulli returns true with probability p. Values of p outside [0, 1]
// are clamped.
func Bernoulli(s Source, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return Float64(s) < p
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Modulo bias is removed by rejection sampling.
func Intn(s Source, n int) int {
	if n <= 0 {
		panic("ldprand: Intn with non-positive n")
	}
	un := uint64(n)
	if un&(un-1) == 0 { // power of two: mask is exact
		return int(s.Uint64() & (un - 1))
	}
	// Reject the tail of the 64-bit range that would bias small residues.
	limit := (^uint64(0)) - (^uint64(0))%un
	for {
		v := s.Uint64()
		if v < limit {
			return int(v % un)
		}
	}
}

// Shuffle permutes the first n elements using the Fisher–Yates algorithm,
// calling swap(i, j) for each exchange.
func Shuffle(s Source, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := Intn(s, i+1)
		swap(i, j)
	}
}

// Perm returns a uniformly random permutation of [0, n).
func Perm(s Source, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	Shuffle(s, n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Normal returns a standard normal variate via the Box–Muller transform.
func Normal(s Source) float64 {
	// Draw u in (0,1] so the logarithm is finite.
	u := 1.0 - Float64(s)
	v := Float64(s)
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// Laplace returns a Laplace(0, b) variate, the noise distribution of the
// central-DP baseline.
func Laplace(s Source, b float64) float64 {
	u := Float64(s) - 0.5
	if u < 0 {
		return b * math.Log(1+2*u)
	}
	return -b * math.Log(1-2*u)
}
