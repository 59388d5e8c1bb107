package ldprand

import (
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
