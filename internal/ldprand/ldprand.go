// Package ldprand supplies the randomness kernel used by every LDP
// mechanism in this repository.
//
// Local differential privacy rests entirely on the quality of each user's
// local coin flips, so the default source is backed by crypto/rand. For
// simulations and deterministic tests the package also provides fast
// seedable generators (SplitMix64, PCG64) and a keyed source derived from
// SHA-256, which is what the Microsoft-style memoization needs: the same
// (secret, value) pair must always yield the same "fresh" randomness.
//
// Bernoulli(s, p) is one coin: Float64(s) < p, one word of s per call.
// The clients that flip every coordinate of an m-bit report (CMS, the
// unary encodings, RAPPOR's instantaneous response) use BernoulliWords
// instead, which flips 64 coins per word of output from a few words of
// s. It compares each output bit (a lane) with p digit by digit: p's
// binary expansion 0.d₁d₂…d₅₃ is read from floor(p·2⁵³), one uniform
// word is drawn per level for every output word that still has an
// undecided lane, and a lane is decided at the first level where its
// random bit differs from p's digit — a 0 against a 1 means the uniform
// lies below p (the lane is 1), a 1 against a 0 that it lies above (the
// lane is 0). A lane that matches all 53 digits is the tie of
// Float64(s) == floor(p·2⁵³)/2⁵³, and takes the value Float64(s) < p
// has there: 1 exactly when p has set bits beyond digit 53. A lane is
// also decided as soon as the digits it has not seen cannot change its
// outcome (p's remaining digits are all 0 with no bits beyond digit 53,
// or all 1 with some), which is what makes p = 1/2 cost one level. So
// every lane is independently 1 with exactly the probability
// Bernoulli(s, p) has, and a report's law is the scalar loop's; only
// which words of s are read, and how many, differs. For 64 lanes a
// level decides about half of those left, so an output word costs
// about log₂64 + 1.3 ≈ 7.3 words of s instead of 64.
//
// A *Crypto source is asked for a level's words in one Fill call, so a
// report takes its lock once per level instead of once per word; Fill
// returns what as many Uint64 calls would.
package ldprand

import (
	"bufio"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"io"
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
	mu  sync.Mutex
	r   *bufio.Reader
	buf [512]byte // staging buffer of Uint64 and Fill, guarded by mu
}

// NewCrypto returns a buffered CSPRNG source.
func NewCrypto() *Crypto {
	return &Crypto{r: bufio.NewReaderSize(rand.Reader, 4096)}
}

// Uint64 returns a uniformly random 64-bit word from the system CSPRNG.
func (c *Crypto) Uint64() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := io.ReadFull(c.r, c.buf[:8]); err != nil {
		panic("ldprand: crypto/rand failed: " + err.Error())
	}
	return binary.LittleEndian.Uint64(c.buf[:8])
}

// Fill sets dst to the next len(dst) words of the stream, exactly what
// as many Uint64 calls would return, under one lock acquisition.
func (c *Crypto) Fill(dst []uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(dst) > 0 {
		n := min(len(dst), len(c.buf)/8)
		if _, err := io.ReadFull(c.r, c.buf[:8*n]); err != nil {
			panic("ldprand: crypto/rand failed: " + err.Error())
		}
		for i := range dst[:n] {
			dst[i] = binary.LittleEndian.Uint64(c.buf[8*i:])
		}
		dst = dst[n:]
	}
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
// are clamped. A NaN p panics: a coin whose probability is undefined
// would otherwise come up false every time, and a report built on it
// would carry its input in the clear.
func Bernoulli(s Source, p float64) bool {
	if math.IsNaN(p) {
		panic(errNaN)
	}
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return Float64(s) < p
}

const errNaN = "ldprand: Bernoulli probability is NaN"

// levelWords bounds how many output words BernoulliWords works on at
// once, so that its level buffers have a fixed size: longer outputs are
// cut into runs of this many words, each run drawn level by level.
const levelWords = 64

// BernoulliWords sets each of the first n bits of dst (bit i is bit
// i%64 of dst[i/64]) to 1 independently with probability p, exactly as
// Bernoulli(s, p) would, and every other bit of dst to 0; dst must hold
// (n+63)/64 words. See the package documentation for how the lanes are
// drawn. Values of p outside [0, 1] are clamped and draw nothing; a NaN
// p panics, as Bernoulli's does.
func BernoulliWords(s Source, p float64, dst []uint64, n int) {
	if math.IsNaN(p) {
		panic(errNaN)
	}
	if n < 0 || len(dst) != (n+63)/64 {
		panic("ldprand: BernoulliWords needs (n+63)/64 words")
	}
	// digits holds p's digits d₁…d₅₃, d₁ at bit 52, and tie the value
	// of a lane that matches all of them. A clamped p draws nothing: 0
	// has no digits, and 1 is read as all of them set with more beyond.
	var digits, tie uint64
	switch {
	case p >= 1:
		digits, tie = 1<<53-1, ^uint64(0)
	case p > 0:
		scaled := p * (1 << 53) // exact
		digits = uint64(scaled)
		if float64(digits) != scaled { // p has set bits beyond digit 53
			tie = ^uint64(0)
		}
	}
	// Below bit last, p's digits are all 1 where the tie is 1 and all 0
	// where it is 0, so a lane that has matched p down to bit last can
	// only end at the tie.
	last := bits.TrailingZeros64(digits)
	if tie != 0 {
		last = bits.TrailingZeros64(^digits)
	}
	for start := 0; start < len(dst); start += levelWords {
		run := dst[start:min(start+levelWords, len(dst))]
		lanes := min(n-64*start, 64*len(run))
		bernoulliRun(s, digits, last, tie, run, lanes)
	}
}

// bernoulliRun is BernoulliWords on at most levelWords words: it draws
// level by level, one uniform word per output word with an undecided
// lane, in ascending word order.
func bernoulliRun(s Source, digits uint64, last int, tie uint64, dst []uint64, lanes int) {
	var undecided, uniform [levelWords]uint64
	var live [levelWords]uint8 // indices of the words with undecided lanes
	for i := range dst {
		dst[i] = 0
		undecided[i] = ^uint64(0)
		live[i] = uint8(i)
	}
	if r := lanes % 64; r != 0 {
		undecided[len(dst)-1] = 1<<r - 1
	}
	k := len(dst)
	for level := 52; k > 0 && level >= last; level-- {
		d := -(digits >> level & 1) // all ones when the digit is 1
		fill(s, uniform[:k])
		next := 0
		for j, w := range live[:k] {
			decided := undecided[w] & (uniform[j] ^ d)
			dst[w] |= decided & d
			if undecided[w] &^= decided; undecided[w] != 0 {
				live[next] = w
				next++
			}
		}
		k = next
	}
	for _, w := range live[:k] {
		dst[w] |= undecided[w] & tie
	}
}

// fill sets dst to the next len(dst) words of s, in one Fill call when
// s is a *Crypto. The assertion names the concrete type: through an
// interface method, dst would escape, and every run would allocate its
// level buffer.
func fill(s Source, dst []uint64) {
	if c, ok := s.(*Crypto); ok {
		c.Fill(dst)
		return
	}
	for i := range dst {
		dst[i] = s.Uint64()
	}
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
