package ldprand

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewSplitMix64(42)
	b := NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("step %d: %d != %d", i, got, want)
		}
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for SplitMix64 with seed 1234567.
	s := NewSplitMix64(1234567)
	first := s.Uint64()
	s2 := NewSplitMix64(1234567)
	if got := s2.Uint64(); got != first {
		t.Fatalf("same seed diverged: %d vs %d", got, first)
	}
	if first == 0 {
		t.Fatal("suspicious zero output for nonzero seed")
	}
}

func TestPCG64Deterministic(t *testing.T) {
	a := NewPCG64(1, 2)
	b := NewPCG64(1, 2)
	c := NewPCG64(1, 3)
	same, diff := true, false
	for i := 0; i < 64; i++ {
		av := a.Uint64()
		if av != b.Uint64() {
			same = false
		}
		if av != c.Uint64() {
			diff = true
		}
	}
	if !same {
		t.Error("equal seeds must produce equal streams")
	}
	if !diff {
		t.Error("different seeds should produce different streams")
	}
}

// TestPCG64KnownValues pins the stream (Keyed sources memoize on it):
// the values were recorded before the 128-bit state multiply moved to
// math/bits.Mul64.
func TestPCG64KnownValues(t *testing.T) {
	for _, c := range []struct {
		hi, lo uint64
		want   []uint64
	}{
		{1, 2, []uint64{0xd8a780acaa71a6f5, 0x7d8c6d49bc5535e9, 0x4c5ae44e4d78e17b, 0xd9208a0a24081100}},
		{^uint64(0), ^uint64(0), []uint64{0x8bd69346b5cae7a6, 0x1d396726771e6c6b}},
	} {
		p := NewPCG64(c.hi, c.lo)
		for i, want := range c.want {
			if got := p.Uint64(); got != want {
				t.Errorf("NewPCG64(%#x, %#x) output %d = %#x, want %#x", c.hi, c.lo, i, got, want)
			}
		}
	}
}

func TestCryptoProducesVariedOutput(t *testing.T) {
	c := NewCrypto()
	seen := make(map[uint64]bool)
	for i := 0; i < 64; i++ {
		seen[c.Uint64()] = true
	}
	if len(seen) < 60 {
		t.Fatalf("CSPRNG produced only %d distinct values in 64 draws", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewSplitMix64(7)
	for i := 0; i < 10000; i++ {
		f := Float64(s)
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestBernoulliCalibration(t *testing.T) {
	s := NewSplitMix64(99)
	const n = 200000
	for _, p := range []float64{0.1, 0.25, 0.5, 0.9} {
		hits := 0
		for i := 0; i < n; i++ {
			if Bernoulli(s, p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Bernoulli(%v) frequency %v, want within 0.01", p, got)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	s := NewSplitMix64(1)
	for i := 0; i < 100; i++ {
		if Bernoulli(s, 0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !Bernoulli(s, 1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if Bernoulli(s, -0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !Bernoulli(s, 1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestIntnBoundsProperty(t *testing.T) {
	s := NewSplitMix64(5)
	f := func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := Intn(s, n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnUniform(t *testing.T) {
	s := NewSplitMix64(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[Intn(s, n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("bucket %d: %d draws, want about %v", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Intn(NewSplitMix64(0), 0)
}

func TestPermIsPermutation(t *testing.T) {
	s := NewSplitMix64(3)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := Perm(s, n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestKeyedDeterministicPerContext(t *testing.T) {
	secret := []byte("user-secret-0123456789abcdef0123")
	a := Keyed(secret, "counter:day")
	b := Keyed(secret, "counter:day")
	c := Keyed(secret, "counter:night")
	sameCount, diffSeen := 0, false
	for i := 0; i < 32; i++ {
		av := a.Uint64()
		if av == b.Uint64() {
			sameCount++
		}
		if av != c.Uint64() {
			diffSeen = true
		}
	}
	if sameCount != 32 {
		t.Error("same (secret, context) must reproduce the same stream")
	}
	if !diffSeen {
		t.Error("different contexts should give different streams")
	}
}

func TestKeyedDiffersPerSecret(t *testing.T) {
	a := Keyed([]byte("secret-a"), "ctx")
	b := Keyed([]byte("secret-b"), "ctx")
	diff := false
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			diff = true
		}
	}
	if !diff {
		t.Error("different secrets should give different streams")
	}
}

func TestNewSecretUnique(t *testing.T) {
	a, b := NewSecret(), NewSecret()
	if len(a) != 32 || len(b) != 32 {
		t.Fatalf("secret lengths %d, %d; want 32", len(a), len(b))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two fresh secrets are identical")
	}
}

func TestNormalMoments(t *testing.T) {
	s := NewSplitMix64(123)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := Normal(s)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %v, want about 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %v, want about 1", variance)
	}
}

func TestLaplaceMoments(t *testing.T) {
	s := NewSplitMix64(321)
	const n = 200000
	const b = 2.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := Laplace(s, b)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("laplace mean %v, want about 0", mean)
	}
	if math.Abs(variance-2*b*b) > 0.4 {
		t.Errorf("laplace variance %v, want about %v", variance, 2*b*b)
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	s := NewSplitMix64(8)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	Shuffle(s, len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 36 {
		t.Fatalf("shuffle changed multiset, sum=%d", sum)
	}
}

func BenchmarkCryptoUint64(b *testing.B) {
	c := NewCrypto()
	for i := 0; i < b.N; i++ {
		c.Uint64()
	}
}

func BenchmarkSplitMix64(b *testing.B) {
	s := NewSplitMix64(1)
	for i := 0; i < b.N; i++ {
		s.Uint64()
	}
}

func BenchmarkPCG64(b *testing.B) {
	s := NewPCG64(1, 2)
	for i := 0; i < b.N; i++ {
		s.Uint64()
	}
}

// script is a Source that returns words from a generator and records
// them, so a test can replay which words a kernel call read.
type script struct {
	next  func(draw int) uint64
	drawn []uint64
}

func (s *script) Uint64() uint64 {
	w := s.next(len(s.drawn))
	s.drawn = append(s.drawn, w)
	return w
}

// cryptoOver is a Crypto whose stream is the given words, little-endian,
// and nothing after them: BernoulliWords reads it through Fill, and a
// read past the end panics.
func cryptoOver(words []uint64) (*Crypto, *bytes.Reader) {
	stream := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(stream[8*i:], w)
	}
	r := bytes.NewReader(stream)
	return &Crypto{r: bufio.NewReader(r)}, r
}

// settled reports whether a lane whose uniform has the 53-bit prefix k
// (its first 53−b digits, then zeros) is decided — below p for every
// way of completing its b unread digits, or above for every way — and
// if so whether it is below: U < p is monotone in U, so the lowest and
// highest completions settle it.
func settled(k uint64, b int, p float64) (decided, below bool) {
	lo := float64(k) / (1 << 53)
	hi := float64(k|(1<<b-1)) / (1 << 53)
	return (lo < p) == (hi < p), lo < p
}

// replayWords rebuilds, from the words a BernoulliWords(p, n) call
// drew, each lane's uniform digit by digit, following the documented
// draw order (runs of 64 words; in each run, level by level, one word
// for every word with a lane whose outcome is not yet settled, in
// ascending order), and returns the lanes' outcomes U < p and the
// number of words that order reads.
func replayWords(t *testing.T, drawn []uint64, p float64, n int) ([]uint64, int) {
	t.Helper()
	words := (n + 63) / 64
	out := make([]uint64, words)
	prefix := make([]uint64, n) // each lane's digits so far, top-aligned at bit 52
	used := 0
	for start := 0; start < words; start += 64 {
		end := min(start+64, words)
		open := make(map[int]bool) // lanes not yet settled
		for i := 64 * start; i < min(64*end, n); i++ {
			open[i] = true
		}
		for level := 52; level >= 0 && len(open) > 0; level-- {
			for w := start; w < end; w++ {
				live := false
				for lane := 64 * w; lane < min(64*w+64, n); lane++ {
					live = live || open[lane]
				}
				if !live {
					continue
				}
				if used == len(drawn) {
					t.Fatalf("p=%v n=%d: the documented order reads past the %d words drawn", p, n, len(drawn))
				}
				u := drawn[used]
				used++
				for lane := 64 * w; lane < min(64*w+64, n); lane++ {
					if !open[lane] {
						continue
					}
					prefix[lane] |= (u >> (lane % 64) & 1) << level
					if decided, below := settled(prefix[lane], level, p); decided {
						delete(open, lane)
						if below {
							out[w] |= 1 << (lane % 64)
						}
					}
				}
			}
		}
		if len(open) > 0 {
			t.Fatalf("p=%v n=%d: %d lanes unsettled after 53 digits", p, n, len(open))
		}
	}
	return out, used
}

// TestBernoulliWordsMatchScalar checks the kernel's law exactly: every
// lane must come out as U < p, with U rebuilt from the digits that lane
// read, which is Bernoulli(s, p) on a word whose top 53 bits are U; and
// the kernel must read exactly the words the documented order reads,
// through Crypto's Fill or Uint64 alike. Lanes that copy p's digits tie at digit
// 53 (or wherever p's remaining digits can no longer change them); a p
// with set bits beyond digit 53 must resolve that tie to 1 and any
// other p to 0.
func TestBernoulliWordsMatchScalar(t *testing.T) {
	ps := []float64{
		0.5, 0.25, 0.75, 1.0 / 3, 0.1, 0.2689414213699951, 0.9,
		math.Ldexp(1, -1070),                          // below every nonzero 53-bit uniform but 0
		1 - math.Ldexp(1, -53),                        // every digit 1, nothing beyond
		0.25 + math.Ldexp(1, -53),                     // ends in digit 53, nothing beyond
		0.25 + math.Ldexp(1, -60),                     // digits end at 2, set bits beyond 53
		0.5 + math.Ldexp(1, -52) + math.Ldexp(1, -55), // digit 53 is 0, bits beyond
	}
	rng := NewSplitMix64(2024)
	for i := 0; i < 20; i++ {
		ps = append(ps, Float64(rng))
	}
	for _, p := range ps {
		digits := uint64(p * (1 << 53))
		for _, n := range []int{1, 37, 64, 65, 130, 1024, 64*64 + 70} {
			for _, tied := range []uint64{0, 1 << 3, 1<<0 | 1<<36 | 1<<63} {
				if tied != 0 && n > 64 {
					continue // a draw is a level only while there is one word
				}
				seed := rng.Uint64()
				gen := func(draw int) uint64 {
					u := NewSplitMix64(seed + uint64(draw)).Uint64()
					if tied == 0 {
						return u
					}
					d := -(digits >> (52 - draw) & 1)
					return u&^tied | d&tied
				}
				plain := &script{next: gen}
				got := make([]uint64, (n+63)/64)
				BernoulliWords(plain, p, got, n)
				want, used := replayWords(t, plain.drawn, p, n)
				if used != len(plain.drawn) {
					t.Errorf("p=%v n=%d: drew %d words, the documented order reads %d", p, n, len(plain.drawn), used)
				}
				for w := range got {
					if got[w] != want[w] {
						t.Errorf("p=%v n=%d tied=%#x: word %d = %#x, want U < p lanes %#x", p, n, tied, w, got[w], want[w])
					}
				}
				viaFill, stream := cryptoOver(plain.drawn)
				again := make([]uint64, len(got))
				BernoulliWords(viaFill, p, again, n)
				if left := stream.Len() + viaFill.r.Buffered(); left != 0 {
					t.Errorf("p=%v n=%d: %d of %d bytes left unread through Fill", p, n, left, 8*len(plain.drawn))
				}
				for w := range got {
					if again[w] != got[w] {
						t.Errorf("p=%v n=%d: word %d differs through Fill", p, n, w)
					}
				}
				if tied != 0 {
					lanes := tied
					if n < 64 {
						lanes &= 1<<n - 1
					}
					wantTie := uint64(0)
					if float64(digits) != p*(1<<53) {
						wantTie = lanes
					}
					if got[0]&lanes != wantTie {
						t.Errorf("p=%v n=%d: tied lanes %#x came out %#x, want %#x", p, n, lanes, got[0]&lanes, wantTie)
					}
				}
			}
		}
	}
}

// TestBernoulliWordsClamps: p outside (0, 1) draws nothing and fills
// every lane with Bernoulli's clamped value, leaving bits past n clear.
func TestBernoulliWordsClamps(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want [2]uint64
	}{
		{0, [2]uint64{}}, {-0.5, [2]uint64{}}, {math.Inf(-1), [2]uint64{}},
		{1, [2]uint64{^uint64(0), 1<<37 - 1}}, {1.5, [2]uint64{^uint64(0), 1<<37 - 1}}, {math.Inf(1), [2]uint64{^uint64(0), 1<<37 - 1}},
	} {
		s := &script{next: func(int) uint64 { return 0 }}
		got := []uint64{7, 7}
		BernoulliWords(s, c.p, got, 101)
		if got[0] != c.want[0] || got[1] != c.want[1] || len(s.drawn) != 0 {
			t.Errorf("p=%v: words %#x after %d draws, want %#x and none", c.p, got, len(s.drawn), c.want)
		}
	}
}

func TestBernoulliRejectsNaN(t *testing.T) {
	for name, coin := range map[string]func(){
		"Bernoulli":      func() { Bernoulli(NewSplitMix64(1), math.NaN()) },
		"BernoulliWords": func() { BernoulliWords(NewSplitMix64(1), math.NaN(), make([]uint64, 1), 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(NaN) did not panic", name)
				}
			}()
			coin()
		}()
	}
}

func TestCryptoFill(t *testing.T) {
	c := NewCrypto()
	words := make([]uint64, 200) // more than one internal read
	c.Fill(words)
	seen := make(map[uint64]bool)
	for _, w := range words {
		seen[w] = true
	}
	if len(seen) < 195 {
		t.Fatalf("Fill produced only %d distinct words in 200", len(seen))
	}
}

// TestDrawsDoNotAllocate pins that a word and a row of coins cost no
// heap: Crypto.Uint64 reads into the source's own buffer, and
// BernoulliWords keeps its level buffers on the stack, whatever the
// Source.
func TestDrawsDoNotAllocate(t *testing.T) {
	c, seeded := NewCrypto(), NewSplitMix64(1)
	row := make([]uint64, 16)
	for name, draw := range map[string]func(){
		"Crypto.Uint64":          func() { c.Uint64() },
		"BernoulliWords, seeded": func() { BernoulliWords(seeded, 0.25, row, 1024) },
		"BernoulliWords, crypto": func() { BernoulliWords(c, 0.25, row, 1024) },
	} {
		if allocs := testing.AllocsPerRun(100, draw); allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, allocs)
		}
	}
}

// BenchmarkBernoulliWords measures one CMS row (m = 1024 lanes at
// flip probability 1/(1+e^(ε/2)), ε = 2) per operation.
func BenchmarkBernoulliWords(b *testing.B) {
	flip := 1 / (1 + math.Exp(1))
	for _, c := range []struct {
		name string
		src  Source
	}{{"seeded", NewSplitMix64(1)}, {"crypto", NewCrypto()}} {
		b.Run(c.name, func(b *testing.B) {
			row := make([]uint64, 16)
			for i := 0; i < b.N; i++ {
				BernoulliWords(c.src, flip, row, 1024)
			}
		})
	}
}
