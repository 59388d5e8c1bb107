package freq

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ldprand"
)

func TestSSSubsetShape(t *testing.T) {
	s := NewSS(1, 64, ldprand.NewSplitMix64(1))
	if s.K() < 1 || s.K() >= 64 {
		t.Fatalf("k=%d out of range", s.K())
	}
	for i := 0; i < 200; i++ {
		sub := s.Privatize(i % 64)
		if len(sub) != s.K() {
			t.Fatalf("subset size %d want %d", len(sub), s.K())
		}
		seen := make(map[int]bool)
		prev := -1
		for _, u := range sub {
			if u < 0 || u >= 64 {
				t.Fatalf("subset value %d out of domain", u)
			}
			if seen[u] {
				t.Fatalf("duplicate %d in subset", u)
			}
			if u <= prev {
				t.Fatalf("subset not sorted: %v", sub)
			}
			seen[u] = true
			prev = u
		}
	}
}

func TestSSOptimalK(t *testing.T) {
	// k ≈ d/(e^ε+1).
	s := NewSS(1, 100, nil)
	want := int(math.Round(100 / (math.E + 1)))
	if s.K() != want {
		t.Errorf("k=%d want %d", s.K(), want)
	}
	// Large ε pushes k to 1.
	if k := NewSS(6, 16, nil).K(); k != 1 {
		t.Errorf("high-eps k=%d want 1", k)
	}
}

func TestSSInclusionCalibration(t *testing.T) {
	const d, n = 32, 60000
	s := NewSS(1, d, ldprand.NewSplitMix64(2))
	inTrue, inOther := 0, 0
	for i := 0; i < n; i++ {
		sub := s.Privatize(5)
		for _, u := range sub {
			if u == 5 {
				inTrue++
			}
			if u == 17 {
				inOther++
			}
		}
	}
	if got := float64(inTrue) / n; math.Abs(got-s.p) > 0.01 {
		t.Errorf("true inclusion %.4f want %.4f", got, s.p)
	}
	if got := float64(inOther) / n; math.Abs(got-s.q) > 0.01 {
		t.Errorf("other inclusion %.4f want %.4f", got, s.q)
	}
}

func TestSSLDPBudgetExact(t *testing.T) {
	// The worst-case likelihood ratio between subsets containing the
	// truth vs not: by construction Pr[S | v∈S]/Pr[S | v∉S] = e^ε.
	for _, eps := range []float64{0.5, 1, 2} {
		s := NewSS(eps, 32, nil)
		kf, df := float64(s.K()), 32.0
		// Pr[S ∋ v | true v] / Pr[S ∋ v | true u ∉ S]: the mechanism's
		// subset distribution gives the e^ε ratio through p/(k/(d... the
		// direct check: p/(1−p) · (d−k)/k must equal e^ε.
		ratio := s.p / (1 - s.p) * (df - kf) / kf
		if math.Abs(ratio-math.Exp(eps)) > 1e-6*math.Exp(eps) {
			t.Errorf("eps=%v: ratio %v want %v", eps, ratio, math.Exp(eps))
		}
	}
}

func TestSSWithKPanics(t *testing.T) {
	for _, k := range []int{0, 16, 20} {
		k := k
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d accepted for d=16", k)
				}
			}()
			NewSSWithK(1, 16, k, nil)
		}()
	}
}

func TestSSAggregateValidation(t *testing.T) {
	s := NewSS(1, 16, ldprand.NewSplitMix64(3))
	good := s.Privatize(0)
	s.Aggregate(good)
	for _, bad := range [][]int{
		{0},                                    // wrong size (k for d=16,eps=1 is > 1)
		append([]int{}, make([]int, s.K())...), // duplicates of 0 when k>1
	} {
		bad := bad
		if len(bad) == s.K() && s.K() == 1 {
			continue // degenerate; skip
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad report accepted: %v", bad)
				}
			}()
			s.Aggregate(bad)
		}()
	}
}

func TestSSKAblationVarianceCurve(t *testing.T) {
	// Variance as a function of k should be minimized near the optimal
	// k = d/(e^ε+1).
	const d = 64
	eps := 1.0
	opt := NewSS(eps, d, nil)
	vOpt := opt.TheoreticalVariance(1000)
	for _, k := range []int{1, 2, 40, 60} {
		if k == opt.K() {
			continue
		}
		v := NewSSWithK(eps, d, k, nil).TheoreticalVariance(1000)
		if v < vOpt*0.98 {
			t.Errorf("k=%d variance %.1f beats optimal k=%d variance %.1f", k, v, opt.K(), vOpt)
		}
	}
}

func TestSortIntsProperty(t *testing.T) {
	f := func(xs []int) bool {
		cp := append([]int(nil), xs...)
		sortInts(cp)
		if len(cp) != len(xs) {
			return false
		}
		for i := 1; i < len(cp); i++ {
			if cp[i] < cp[i-1] {
				return false
			}
		}
		// Same multiset: compare sums and xors as a cheap proxy.
		var s1, s2, x1, x2 int
		for i := range xs {
			s1 += xs[i]
			x1 ^= xs[i]
			s2 += cp[i]
			x2 ^= cp[i]
		}
		return s1 == s2 && x1 == x2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
