package ldprand_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bloom"
	"repro/internal/cms"
	"repro/internal/freq"
	"repro/internal/hashutil"
	"repro/internal/ldprand"
	"repro/internal/rappor"
)

// TestPrivacyAudit is an empirical ε-LDP audit in the style of StatDP
// (Ding et al., "Detecting Violations of Differential Privacy", CCS
// 2018) of the clients that draw their reports with BernoulliWords —
// CMS, SUE, OUE and RAPPOR's instantaneous response — and of GRR, OLH
// and SS. Every report is read as lanes, one per domain value: GRR's
// as the one lane of its reported value, SS's as the lanes of its
// subset, OLH's as the lanes of every value its seed hashes into its
// bucket. For two inputs v and v′ over a small domain it samples
// reports at each, counts the output event with the largest predicted
// ratio — the lanes set under v and not v′ all 1, those set under v′
// and not v all 0 — and fails
// when Clopper–Pearson bounds at α = 10⁻⁶ put Pr[E | v] / Pr[E | v′]
// above e^ε. Both orders of the pair are audited. It is deterministic
// per seed; the predicted ratio of each event is exactly e^ε, so a
// flip probability off by a few percent in the violating direction
// fails it.
func TestPrivacyAudit(t *testing.T) {
	const (
		n     = 200000 // reports per input
		alpha = 1e-6
	)
	src := ldprand.NewSplitMix64(0x5eed)
	type row struct {
		name   string
		eps    float64
		lanes  [2]uint64              // the one-hot (or Bloom) lanes of inputs 0 and 1
		report func(input int) uint64 // one report's lanes (all within one word)
	}
	var rows []row

	const eps = 2
	cmsParams := cms.Params{Epsilon: eps, Width: 8, Hashes: 1, Seed: 3}
	cmsClient, err := cms.NewClient(cmsParams, src)
	if err != nil {
		t.Fatal(err)
	}
	items := distinctItems(t, func(item []byte) uint64 { return 1 << cmsParams.Position(0, item) })
	rows = append(rows, row{"CMS", eps, [2]uint64{1 << cmsParams.Position(0, items[0]), 1 << cmsParams.Position(0, items[1])},
		func(input int) uint64 { return cmsClient.Report(items[input]).Bits.Words()[0] }})

	for _, ue := range []*freq.UE{freq.NewSUE(eps, 4, src), freq.NewOUE(eps, 4, src)} {
		rows = append(rows, row{ue.Name(), eps, [2]uint64{1, 2},
			func(input int) uint64 { return ue.Privatize(input).Words()[0] }})
	}

	grr := freq.NewGRR(eps, 4, src)
	rows = append(rows, row{"GRR", eps, [2]uint64{1, 2},
		func(input int) uint64 { return 1 << grr.Privatize(input) }})

	olh := freq.NewOLH(eps, 8, src)
	rows = append(rows, row{"OLH", eps, [2]uint64{1, 2},
		func(input int) uint64 {
			r := olh.Privatize(input)
			var lanes uint64
			for v := 0; v < 8; v++ {
				if hashutil.HashIntRange(r.Seed, v, olh.G()) == r.Bucket {
					lanes |= 1 << v
				}
			}
			return lanes
		}})

	ss := freq.NewSS(1, 16, src) // k = 4
	rows = append(rows, row{"SS", 1, [2]uint64{1, 2},
		func(input int) uint64 {
			var lanes uint64
			for _, v := range ss.Privatize(input) {
				lanes |= 1 << v
			}
			return lanes
		}})

	// With no permanent noise (F = 0) the permanent response is the
	// Bloom filter itself, so the instantaneous response is the whole
	// mechanism: a pair of values whose k-bit filters are disjoint
	// spends k·ln(Q(1−P)/(P(1−Q))).
	rp := rappor.Params{BloomBits: 16, Hashes: 2, Cohorts: 1, F: 0, P: 0.5, Q: 0.75, Seed: 11}
	rc, err := rappor.NewClient(rp, []byte("audit"), src)
	if err != nil {
		t.Fatal(err)
	}
	filter := bloom.New(rp.BloomBits, rp.Hashes, rp.Seed)
	values := distinctItems(t, func(item []byte) uint64 { return filter.Encode(item).Words()[0] })
	rows = append(rows, row{"RAPPOR IRR", float64(rp.Hashes) * math.Log(rp.Q*(1-rp.P)/(rp.P*(1-rp.Q))),
		[2]uint64{filter.Encode(values[0]).Words()[0], filter.Encode(values[1]).Words()[0]},
		func(input int) uint64 { return rc.Report(string(values[input])).Bits.Words()[0] }})

	for _, r := range rows {
		var hits [2][2]int // hits[e][input]: reports at input in the event favouring input e
		for input := 0; input < 2; input++ {
			for i := 0; i < n; i++ {
				w := r.report(input)
				for e := 0; e < 2; e++ {
					ones, zeros := r.lanes[e]&^r.lanes[1-e], r.lanes[1-e]&^r.lanes[e]
					if w&ones == ones && w&zeros == 0 {
						hits[e][input]++
					}
				}
			}
		}
		for e := 0; e < 2; e++ {
			lo := clopperPearsonLower(hits[e][e], n, alpha)
			hi := clopperPearsonUpper(hits[e][1-e], n, alpha)
			t.Logf("%s, event favouring input %d: %d vs %d of %d, ratio ≥ %.4f (e^ε = %.4f)",
				r.name, e, hits[e][e], hits[e][1-e], n, lo/hi, math.Exp(r.eps))
			if lo > math.Exp(r.eps)*hi {
				t.Errorf("%s: Pr[E | input %d] / Pr[E | input %d] ≥ %.4f at α = %g, above e^ε = %.4f",
					r.name, e, 1-e, lo/hi, alpha, math.Exp(r.eps))
			}
		}
	}
}

// distinctItems returns two items whose lane masks are nonempty and
// disjoint.
func distinctItems(t *testing.T, lanes func(item []byte) uint64) [2][]byte {
	t.Helper()
	first := []byte("item-0")
	for i := 1; i < 1000; i++ {
		item := []byte(fmt.Sprint("item-", i))
		if a, b := lanes(first), lanes(item); a != 0 && b != 0 && a&b == 0 {
			return [2][]byte{first, item}
		}
	}
	t.Fatal("no item with disjoint lanes")
	return [2][]byte{}
}

// TestClopperPearson checks the bounds against closed forms: with no
// successes the upper bound solves (1−p)^n = α, with all of them the
// lower bound solves p^n = α.
func TestClopperPearson(t *testing.T) {
	const n, alpha = 1000, 1e-6
	if got, want := clopperPearsonUpper(0, n, alpha), 1-math.Pow(alpha, 1.0/n); math.Abs(got-want) > 1e-9 {
		t.Errorf("upper(0 of %d) = %v, want %v", n, got, want)
	}
	if got, want := clopperPearsonLower(n, n, alpha), math.Pow(alpha, 1.0/n); math.Abs(got-want) > 1e-9 {
		t.Errorf("lower(%d of %d) = %v, want %v", n, n, got, want)
	}
	if lo, hi := clopperPearsonLower(300, n, alpha), clopperPearsonUpper(300, n, alpha); !(lo < 0.3 && 0.3 < hi && hi-lo < 0.15) {
		t.Errorf("300 of %d: [%v, %v]", n, lo, hi)
	}
}

// clopperPearsonLower is the exact one-sided lower confidence bound at
// level α for a binomial probability after k successes in n trials:
// the p at which Pr[X ≥ k] = α, that is I_p(k, n−k+1) = α.
func clopperPearsonLower(k, n int, alpha float64) float64 {
	if k == 0 {
		return 0
	}
	return solveBeta(float64(k), float64(n-k+1), alpha)
}

// clopperPearsonUpper is the matching upper bound: the p at which
// Pr[X ≤ k] = α, that is I_p(k+1, n−k) = 1 − α.
func clopperPearsonUpper(k, n int, alpha float64) float64 {
	if k == n {
		return 1
	}
	return solveBeta(float64(k+1), float64(n-k), 1-alpha)
}

// solveBeta returns the x in (0, 1) with I_x(a, b) = y, by bisection:
// I_x is increasing in x.
func solveBeta(a, b, y float64) float64 {
	lo, hi := 0.0, 1.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if betaInc(mid, a, b) < y {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// betaInc is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (modified Lentz) on the side of
// the mean where it converges fast.
func betaInc(x, a, b float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFraction(x, a, b) / a
	}
	return 1 - front*betaFraction(1-x, b, a)/b
}

func betaFraction(x, a, b float64) float64 {
	const tiny = 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1.0; m < 100000; m++ {
		for _, num := range []float64{
			m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m)),
			-(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
		}
		if math.Abs(d*c-1) < 1e-15 {
			break
		}
	}
	return h
}
