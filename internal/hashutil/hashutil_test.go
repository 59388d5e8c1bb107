package hashutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHash64Deterministic(t *testing.T) {
	data := []byte("www.example.com")
	if Hash64(1, data) != Hash64(1, data) {
		t.Error("same seed/data must hash equal")
	}
	if Hash64(1, data) == Hash64(2, data) {
		t.Error("different seeds should hash differently")
	}
}

func TestHashInt64SeedSeparation(t *testing.T) {
	collisions := 0
	for seed := uint64(0); seed < 100; seed++ {
		if NewIntHasher(seed, 0).Hash(42) == NewIntHasher(seed+1, 0).Hash(42) {
			collisions++
		}
	}
	if collisions > 0 {
		t.Errorf("%d adjacent-seed collisions on same item", collisions)
	}
}

func TestRangeBoundsProperty(t *testing.T) {
	f := func(h uint64, mRaw uint16) bool {
		m := int(mRaw%1024) + 1
		v := Range(h, m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashIntRangeUniformity(t *testing.T) {
	const m = 16
	const n = 100000
	counts := make([]int, m)
	for i := 0; i < n; i++ {
		counts[HashIntRange(12345, i, m)]++
	}
	want := float64(n) / m
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.08*want {
			t.Errorf("bucket %d: %d, want about %.0f", b, c, want)
		}
	}
}

func TestHashBytesRangeDeterministic(t *testing.T) {
	for _, m := range []int{2, 7, 100} {
		a := HashBytesRange(9, []byte("item"), m)
		b := HashBytesRange(9, []byte("item"), m)
		if a != b {
			t.Fatalf("non-deterministic hash for m=%d", m)
		}
		if a < 0 || a >= m {
			t.Fatalf("out of range: %d for m=%d", a, m)
		}
	}
}

// TestMul128KnownValues checks the 128-bit product behind Range at the
// values that exercise every carry of the hand-rolled multiply it used
// before math/bits.Mul64.
func TestMul128KnownValues(t *testing.T) {
	// Range(h, m) is the high word of h·m.
	for _, c := range []struct {
		h    uint64
		m    int
		want int
	}{
		{math.MaxUint64, math.MaxInt, math.MaxInt - 1}, // (2^64−1)(2^63−1) = (2^63−2)·2^64 + …
		{1 << 32, 1 << 32, 1},
		{3, 5, 0},
		{1 << 63, 2, 1},
		{1<<63 - 1, 2, 0},
		{0xdeadbeefcafef00d, 1 << 20, 0xdeadb},
	} {
		if got := Range(c.h, c.m); got != c.want {
			t.Errorf("Range(%#x, %d) = %d, want %d", c.h, c.m, got, c.want)
		}
		if got := int(refMul128Hi(c.h, uint64(c.m))); got != c.want {
			t.Errorf("oracle hi(%#x·%d) = %d, want %d", c.h, c.m, got, c.want)
		}
	}
}

// refHashIntRange is the integer hash as it was defined before the fold
// kernels: two SplitMix64 finalizers and a hand-rolled 128-bit
// multiply, nothing hoisted. Test-only; IntHasher must agree with it
// on every input.
func refHashIntRange(seed uint64, item, m int) int {
	mix := func(z uint64) uint64 {
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	x := uint64(item)
	x ^= seed + 0x9e3779b97f4a7c15
	x = mix(x)
	x ^= seed<<32 | seed>>32
	return int(refMul128Hi(mix(x), uint64(m)))
}

// refMul128Hi is the high word of the 128-bit product a·b by 32-bit
// limbs.
func refMul128Hi(a, b uint64) uint64 {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	hiPart := t >> 32
	t = aLo*bHi + mid
	return aHi*bHi + hiPart + t>>32
}

func TestKernelIntHasher(t *testing.T) {
	f := func(seed uint64, item int, mRaw uint32) bool {
		for _, m := range []int{2, 9, 64, int(mRaw) + 1, math.MaxInt} {
			want := refHashIntRange(seed, item, m)
			h := NewIntHasher(seed, m)
			if h.Bucket(item) != want || HashIntRange(seed, item, m) != want ||
				Range(h.Hash(item), m) != want || h.Hash(item) != NewIntHasher(seed, 0).Hash(item) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkIntHasherHash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NewIntHasher(uint64(i), 0).Hash(i)
	}
}

func BenchmarkHash64Bytes(b *testing.B) {
	data := []byte("https://www.example.com/some/path")
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Hash64(uint64(i), data)
	}
}
