package telemetry

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ldprand"
	"repro/internal/workload"
)

func meanParams() MeanParams { return MeanParams{Epsilon: 1, Max: 100} }

func TestOneBitCalibration(t *testing.T) {
	p := meanParams()
	src := ldprand.NewSplitMix64(1)
	const n = 100000
	for _, x := range []float64{0, 25, 50, 100} {
		ones := 0
		for i := 0; i < n; i++ {
			ones += OneBit(p, x, src)
		}
		got := float64(ones) / n
		e := math.Exp(p.Epsilon)
		want := 1/(e+1) + (x/p.Max)*(e-1)/(e+1)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("x=%v: one rate %.4f want %.4f", x, got, want)
		}
	}
}

func TestMeanRecovery(t *testing.T) {
	p := meanParams()
	src := ldprand.NewSplitMix64(2)
	col, err := NewMeanCollector(p)
	if err != nil {
		t.Fatal(err)
	}
	values := workload.Counters(src, p.Max, 50000)
	var truth float64
	for _, x := range values {
		truth += x
		if err := col.Add(OneBit(p, x, src)); err != nil {
			t.Fatal(err)
		}
	}
	truth /= float64(len(values))
	got := col.Estimate()
	tol := 4 * math.Sqrt(MeanVariance(p, col.Collected()))
	if math.Abs(got-truth) > tol {
		t.Errorf("mean estimate %.2f truth %.2f (tol %.2f)", got, truth, tol)
	}
}

func TestMeanFromBitsEdgeCases(t *testing.T) {
	p := meanParams()
	if MeanFromBits(p, 10, 0) != 0 {
		t.Error("n=0 should give 0")
	}
	// All bits one ⇒ estimate should exceed Max/2; all zero ⇒ below.
	if MeanFromBits(p, 1000, 1000) <= p.Max/2 {
		t.Error("all-ones estimate too low")
	}
	if MeanFromBits(p, 0, 1000) >= p.Max/2 {
		t.Error("all-zeros estimate too high")
	}
}

func TestMeanCollectorRejectsBadBits(t *testing.T) {
	col, _ := NewMeanCollector(meanParams())
	if err := col.Add(2); err == nil {
		t.Error("bit 2 accepted")
	}
	if err := col.Add(-1); err == nil {
		t.Error("bit -1 accepted")
	}
}

func TestClientMemoization(t *testing.T) {
	p := meanParams()
	c, err := NewClient(p, []byte("secret"), "app-usage")
	if err != nil {
		t.Fatal(err)
	}
	// Same value, many reports: always the identical bit.
	first := c.Report(30)
	for i := 0; i < 100; i++ {
		if c.Report(30) != first {
			t.Fatal("memoized report changed")
		}
	}
	// Rebuilt client with the same secret reproduces the same bits.
	c2, _ := NewClient(p, []byte("secret"), "app-usage")
	if c2.Report(30) != first {
		t.Fatal("restart changed memoized report")
	}
	// A different metric may differ (fresh randomness).
	c3, _ := NewClient(p, []byte("secret"), "other-metric")
	_ = c3.Report(30) // just exercising the path; value may coincide
}

func TestAlphaRoundingUnbiasedOverUsers(t *testing.T) {
	// Across many users (each with their own α and memoized bits), the
	// collected mean should still be unbiased.
	p := meanParams()
	col, _ := NewMeanCollector(p)
	src := ldprand.NewSplitMix64(3)
	const n = 60000
	var truth float64
	for i := 0; i < n; i++ {
		x := p.Max * ldprand.Float64(src)
		truth += x
		c, err := NewClient(p, []byte(fmt.Sprintf("user-%d", i)), "m")
		if err != nil {
			t.Fatal(err)
		}
		if err := col.Add(c.Report(x)); err != nil {
			t.Fatal(err)
		}
	}
	truth /= n
	got := col.Estimate()
	// α-rounding adds rounding variance on top of the RR variance.
	tol := 6 * math.Sqrt(MeanVariance(p, n))
	if math.Abs(got-truth) > tol {
		t.Errorf("memoized mean %.2f truth %.2f (tol %.2f)", got, truth, tol)
	}
}

func TestMemoizationDefeatsAveraging(t *testing.T) {
	// The privacy argument of E7: with memoization, observing T rounds
	// of an unchanged value yields a *constant* report, so the
	// adversary's per-user estimate cannot concentrate on the true
	// value. Without memoization the average of T rounds converges to
	// the biased coin's rate, revealing x.
	p := meanParams()
	const rounds = 500
	x := 73.0

	c, _ := NewClient(p, []byte("victim"), "m")
	distinct := make(map[int]bool)
	for r := 0; r < rounds; r++ {
		distinct[c.Report(x)] = true
	}
	if len(distinct) != 1 {
		t.Fatalf("memoized client produced %d distinct reports for a fixed value", len(distinct))
	}

	src := ldprand.NewSplitMix64(4)
	sum := 0
	for r := 0; r < rounds; r++ {
		sum += c.NaiveReport(x, src)
	}
	rate := float64(sum) / rounds
	e := math.Exp(p.Epsilon)
	implied := (rate*(e+1) - 1) / (e - 1) * p.Max
	if math.Abs(implied-x) > 15 {
		t.Errorf("averaging attack should recover x=73 without memoization, got %.1f", implied)
	}
}

func TestParamsValidation(t *testing.T) {
	if _, err := NewMeanCollector(MeanParams{Epsilon: 0, Max: 1}); err == nil {
		t.Error("epsilon 0 accepted")
	}
	if _, err := NewMeanCollector(MeanParams{Epsilon: 1, Max: 0}); err == nil {
		t.Error("max 0 accepted")
	}
	if _, err := NewClient(meanParams(), nil, "m"); err == nil {
		t.Error("empty secret accepted")
	}
}

func TestMeanVarianceShrinks(t *testing.T) {
	p := meanParams()
	if MeanVariance(p, 10000) >= MeanVariance(p, 100) {
		t.Error("variance should shrink with n")
	}
	if !math.IsInf(MeanVariance(p, 0), 1) {
		t.Error("n=0 variance should be infinite")
	}
}

// TestOneBitRefusesNaN: clamp lets NaN through, and the coin it gives
// has no defined probability, so OneBit must refuse it rather than
// report the bit of one fixed input.
func TestOneBitRefusesNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("OneBit(NaN) reported a bit")
		}
	}()
	OneBit(MeanParams{Epsilon: 1, Max: 10}, math.NaN(), ldprand.NewSplitMix64(1))
}
