package freq

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ldprand"
)

// runProtocol feeds values drawn from dist (counts per domain value) to
// the oracle and returns estimated counts.
func runProtocol(o Oracle, truth []int) []float64 {
	for v, c := range truth {
		for i := 0; i < c; i++ {
			o.Collect(v)
		}
	}
	return o.EstimateCounts()
}

// skewedTruth builds a deterministic skewed distribution over d values
// totalling n.
func skewedTruth(d, n int) []int {
	truth := make([]int, d)
	remaining := n
	for v := 0; v < d-1 && remaining > 0; v++ {
		c := remaining / 3
		truth[v] = c
		remaining -= c
	}
	truth[d-1] += remaining
	return truth
}

func totalOf(truth []int) int {
	t := 0
	for _, c := range truth {
		t += c
	}
	return t
}

func TestAllOraclesUnbiased(t *testing.T) {
	const d, n = 16, 60000
	const eps = 2.0
	truth := skewedTruth(d, n)
	for _, m := range Mechanisms() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			o := m.Build(Config{Epsilon: eps, Domain: d, Source: ldprand.NewSplitMix64(42)})
			est := runProtocol(o, truth)
			if o.Collected() != n {
				t.Fatalf("Collected=%d want %d", o.Collected(), n)
			}
			// Tolerance: 5 standard deviations of the analytic estimator.
			tol := 5 * math.Sqrt(o.TheoreticalVariance(n))
			// Histogram encodings and HRR have slightly different
			// constants at high frequency; allow a little slack.
			tol = math.Max(tol, 0.02*float64(n))
			for v := range truth {
				if diff := math.Abs(est[v] - float64(truth[v])); diff > tol {
					t.Errorf("value %d: estimate %.1f truth %d (|diff| %.1f > tol %.1f)",
						v, est[v], truth[v], diff, tol)
				}
			}
		})
	}
}

func TestEstimatesSumNearN(t *testing.T) {
	// Unbiased count estimates should total roughly n.
	const d, n = 8, 40000
	truth := skewedTruth(d, n)
	for _, m := range Mechanisms() {
		o := m.Build(Config{Epsilon: 1.5, Domain: d, Source: ldprand.NewSplitMix64(7)})
		est := runProtocol(o, truth)
		var sum float64
		for _, e := range est {
			sum += e
		}
		if math.Abs(sum-float64(n)) > 0.1*float64(n) {
			t.Errorf("%s: estimates sum %.0f, want about %d", o.Name(), sum, n)
		}
	}
}

func TestEmpiricalVarianceMatchesTheory(t *testing.T) {
	// For a low-frequency item (count 0), the empirical squared error
	// averaged over trials should be close to TheoreticalVariance(n).
	// This is the E2 "analysis matches measurement" check in miniature.
	const d, n, trials = 32, 4000, 30
	for _, m := range Mechanisms() {
		if m.Name == "HRR" {
			continue // HRR variance is checked with its own constant below
		}
		o := m.Build(Config{Epsilon: 1.0, Domain: d, Source: ldprand.NewSplitMix64(99)})
		var sqErr float64
		for trial := 0; trial < trials; trial++ {
			o.Reset()
			for i := 0; i < n; i++ {
				o.Collect(1) // value 0 never occurs
			}
			est := o.EstimateCounts()
			sqErr += est[0] * est[0]
		}
		empirical := sqErr / trials
		theory := o.TheoreticalVariance(n)
		ratio := empirical / theory
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s: empirical var %.1f vs theory %.1f (ratio %.2f)",
				o.Name(), empirical, theory, ratio)
		}
	}
}

func TestOUEBeatsSUEVariance(t *testing.T) {
	// The OUE ablation: optimized probabilities must strictly lower the
	// analytic variance at every epsilon.
	for _, eps := range []float64{0.5, 1, 2, 4} {
		sue := NewSUE(eps, 10, ldprand.NewSplitMix64(1))
		oue := NewOUE(eps, 10, ldprand.NewSplitMix64(1))
		if oue.TheoreticalVariance(1000) >= sue.TheoreticalVariance(1000) {
			t.Errorf("eps=%v: OUE variance %.2f not below SUE %.2f", eps,
				oue.TheoreticalVariance(1000), sue.TheoreticalVariance(1000))
		}
	}
}

func TestOLHMatchesOUEVariance(t *testing.T) {
	// Wang et al.: OLH and OUE have (asymptotically) the same variance
	// 4e^ε/(e^ε−1)²·n. With the integer ceiling on g they differ by a
	// small factor only.
	for _, eps := range []float64{1, 2, 3} {
		oue := NewOUE(eps, 100, nil)
		olh := NewOLH(eps, 100, nil)
		r := olh.TheoreticalVariance(1000) / oue.TheoreticalVariance(1000)
		if r < 0.8 || r > 1.3 {
			t.Errorf("eps=%v: OLH/OUE variance ratio %.3f outside [0.8,1.3]", eps, r)
		}
	}
}

func TestGRRCrossover(t *testing.T) {
	// GRR beats OLH while d < 3e^ε + 2 and loses above (E3).
	eps := 1.0
	crossover := 3*math.Exp(eps) + 2
	small := int(crossover) - 3
	large := int(crossover) + 10
	if small < 2 {
		small = 2
	}
	grrS := NewGRR(eps, small, nil)
	olhS := NewOLH(eps, small, nil)
	if grrS.TheoreticalVariance(1000) >= olhS.TheoreticalVariance(1000)*1.05 {
		t.Errorf("d=%d below crossover: GRR %.1f should not exceed OLH %.1f",
			small, grrS.TheoreticalVariance(1000), olhS.TheoreticalVariance(1000))
	}
	grrL := NewGRR(eps, large, nil)
	olhL := NewOLH(eps, large, nil)
	if grrL.TheoreticalVariance(1000) <= olhL.TheoreticalVariance(1000) {
		t.Errorf("d=%d above crossover: GRR %.1f should exceed OLH %.1f",
			large, grrL.TheoreticalVariance(1000), olhL.TheoreticalVariance(1000))
	}
}

func TestGRRPrivatizeCalibration(t *testing.T) {
	const eps, d, n = 1.0, 5, 200000
	g := NewGRR(eps, d, ldprand.NewSplitMix64(3))
	keep := 0
	for i := 0; i < n; i++ {
		if g.Privatize(2) == 2 {
			keep++
		}
	}
	got := float64(keep) / n
	if math.Abs(got-g.p) > 0.005 {
		t.Errorf("GRR keep rate %.4f want %.4f", got, g.p)
	}
}

func TestGRRLiesUniform(t *testing.T) {
	const eps, d, n = 0.5, 4, 300000
	g := NewGRR(eps, d, ldprand.NewSplitMix64(5))
	counts := make([]int, d)
	for i := 0; i < n; i++ {
		counts[g.Privatize(0)]++
	}
	// Each lie value should appear with probability q.
	for v := 1; v < d; v++ {
		got := float64(counts[v]) / n
		if math.Abs(got-g.q) > 0.005 {
			t.Errorf("lie value %d rate %.4f want %.4f", v, got, g.q)
		}
	}
}

func TestUEBitCalibration(t *testing.T) {
	const eps, d, n = 2.0, 6, 100000
	u := NewOUE(eps, d, ldprand.NewSplitMix64(9))
	onesTrue, onesFalse := 0, 0
	for i := 0; i < n; i++ {
		r := u.Privatize(3)
		if r.Get(3) {
			onesTrue++
		}
		if r.Get(0) {
			onesFalse++
		}
	}
	if got := float64(onesTrue) / n; math.Abs(got-u.p) > 0.01 {
		t.Errorf("true-bit keep rate %.4f want %.4f", got, u.p)
	}
	if got := float64(onesFalse) / n; math.Abs(got-u.q) > 0.01 {
		t.Errorf("false-bit flip rate %.4f want %.4f", got, u.q)
	}
}

func TestUECustomProbabilitiesBudgetCheck(t *testing.T) {
	// p=0.75, q=0.25 needs ε = ln(9) ≈ 2.197.
	NewUE(2.2, 4, 0.75, 0.25, nil) // must not panic
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: probabilities exceed budget")
		}
	}()
	NewUE(2.0, 4, 0.75, 0.25, nil)
}

func TestTHEThresholdOptimal(t *testing.T) {
	// The auto-selected threshold should do at least as well as the
	// endpoints of the search interval.
	eps := 1.0
	auto := NewTHE(eps, 10, nil)
	if auto.Theta() <= 0.5 || auto.Theta() >= 1.0 {
		t.Fatalf("optimal theta %.3f outside (0.5, 1)", auto.Theta())
	}
	for _, theta := range []float64{0.55, 0.95} {
		fixed := NewTHEWithThreshold(eps, 10, theta, nil)
		if auto.TheoreticalVariance(1000) > fixed.TheoreticalVariance(1000)*1.001 {
			t.Errorf("auto theta %.3f var %.2f worse than theta=%.2f var %.2f",
				auto.Theta(), auto.TheoreticalVariance(1000), theta, fixed.TheoreticalVariance(1000))
		}
	}
}

func TestLaplaceCDF(t *testing.T) {
	if got := laplaceCDF(0, 1); got != 0.5 {
		t.Errorf("CDF(0)=%v want 0.5", got)
	}
	if got := laplaceCDF(100, 1); got < 0.999 {
		t.Errorf("CDF(100)=%v want about 1", got)
	}
	if got := laplaceCDF(-100, 1); got > 0.001 {
		t.Errorf("CDF(-100)=%v want about 0", got)
	}
	// Monotone.
	prev := -1.0
	for x := -5.0; x <= 5; x += 0.25 {
		c := laplaceCDF(x, 2)
		if c < prev {
			t.Fatalf("CDF not monotone at %v", x)
		}
		prev = c
	}
}

func TestLHSupportProbability(t *testing.T) {
	// A report generated from value v must support v with probability
	// p, and support an unrelated value with probability about 1/g.
	const eps, d, n = 1.0, 50, 50000
	l := NewOLH(eps, d, ldprand.NewSplitMix64(21))
	supportTrue, supportOther := 0, 0
	for i := 0; i < n; i++ {
		r := l.Privatize(7)
		if hashSupports(l, r, 7) {
			supportTrue++
		}
		if hashSupports(l, r, 33) {
			supportOther++
		}
	}
	pTrue := float64(supportTrue) / n
	pOther := float64(supportOther) / n
	if math.Abs(pTrue-l.p) > 0.01 {
		t.Errorf("true support rate %.4f want %.4f", pTrue, l.p)
	}
	if math.Abs(pOther-1/float64(l.G())) > 0.01 {
		t.Errorf("other support rate %.4f want %.4f", pOther, 1/float64(l.G()))
	}
}

// hashSupports replays the server-side support rule for one report.
func hashSupports(l *LH, r LHReport, v int) bool {
	tmp := newLH("tmp", l.Epsilon(), l.Domain(), l.G(), ldprand.NewSplitMix64(0))
	tmp.Aggregate(r)
	return tmp.tally.Cells[v] > 0
}

func TestHRRReportsValid(t *testing.T) {
	h := NewHRR(1.0, 10, ldprand.NewSplitMix64(12))
	for i := 0; i < 1000; i++ {
		r := h.Privatize(i % 10)
		if r.Index < 0 || r.Index >= h.PaddedDomain() {
			t.Fatalf("index %d out of range", r.Index)
		}
		if r.Sign != 1 && r.Sign != -1 {
			t.Fatalf("sign %d invalid", r.Sign)
		}
	}
}

func TestHRRSignFlipRate(t *testing.T) {
	const eps, n = 1.5, 100000
	h := NewHRR(eps, 4, ldprand.NewSplitMix64(31))
	// With v=0, the true entry H[j,0] = +1 for all j, so the reported
	// sign is +1 exactly when not flipped.
	plus := 0
	for i := 0; i < n; i++ {
		if h.Privatize(0).Sign == 1 {
			plus++
		}
	}
	got := float64(plus) / n
	want := math.Exp(eps) / (math.Exp(eps) + 1)
	if math.Abs(got-want) > 0.005 {
		t.Errorf("keep rate %.4f want %.4f", got, want)
	}
}

// TestResetClearsState covers the float-sum oracles; Reset of every
// counting oracle is TestTallyLifecycle's.
func TestResetClearsState(t *testing.T) {
	for _, o := range []Oracle{NewSHE(1, 4, ldprand.NewSplitMix64(2)), NewHRR(1, 4, ldprand.NewSplitMix64(2))} {
		o.Collect(1)
		o.Collect(2)
		o.Reset()
		if o.Collected() != 0 {
			t.Errorf("%s: Collected=%d after Reset", o.Name(), o.Collected())
		}
		for v, c := range o.EstimateCounts() {
			if c != 0 {
				t.Errorf("%s: estimate[%d]=%v after Reset", o.Name(), v, c)
			}
		}
	}
}

func TestCollectPanicsOutOfDomain(t *testing.T) {
	for _, m := range Mechanisms() {
		o := m.Build(Config{Epsilon: 1, Domain: 4, Source: ldprand.NewSplitMix64(2)})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: out-of-domain Collect did not panic", o.Name())
				}
			}()
			o.Collect(4)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: negative Collect did not panic", o.Name())
				}
			}()
			o.Collect(-1)
		}()
	}
}

func TestConstructorValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewGRR(0, 4, nil) },
		func() { NewGRR(-1, 4, nil) },
		func() { NewGRR(math.NaN(), 4, nil) },
		func() { NewGRR(1, 1, nil) },
		func() { NewOUE(1, 0, nil) },
		func() { NewOLH(math.Inf(1), 4, nil) },
		func() { NewLH(1, 4, 1, nil) },
		func() { NewTHEWithThreshold(1, 4, 0, nil) },
		func() { NewTHEWithThreshold(1, 4, 1.5, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected constructor panic")
				}
			}()
			fn()
		}()
	}
}

func TestBinaryRRProportion(t *testing.T) {
	const n = 50000
	b := NewBinaryRR(1.0, ldprand.NewSplitMix64(77))
	trueOnes := n / 4
	for i := 0; i < n; i++ {
		v := 0
		if i < trueOnes {
			v = 1
		}
		b.Collect(v)
	}
	est, ci := b.EstimateProportion(0.05)
	if math.Abs(est-0.25) > 0.03 {
		t.Errorf("proportion estimate %.3f want about 0.25", est)
	}
	if ci <= 0 || ci > 0.1 {
		t.Errorf("CI half-width %.4f implausible", ci)
	}
	if math.Abs(est-0.25) > 3*ci {
		t.Errorf("estimate off by more than 3 CI widths")
	}
}

func TestEstimateFrequencies(t *testing.T) {
	f := EstimateFrequencies([]float64{10, 30}, 40)
	if f[0] != 0.25 || f[1] != 0.75 {
		t.Fatalf("frequencies %v", f)
	}
	z := EstimateFrequencies([]float64{1, 2}, 0)
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("n=0 frequencies %v", z)
	}
}

func TestClampToSimplexProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		out := ClampToSimplex(raw)
		var sum float64
		for _, x := range out {
			if x < 0 || x > 1+1e-9 {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReportBits(t *testing.T) {
	d := 1024
	eps := 1.0
	if got := NewGRR(eps, d, nil).ReportBits(); got != 10 {
		t.Errorf("GRR bits=%d want 10", got)
	}
	if got := NewOUE(eps, d, nil).ReportBits(); got != d {
		t.Errorf("OUE bits=%d want %d", got, d)
	}
	if got := NewSHE(eps, d, nil).ReportBits(); got != 64*d {
		t.Errorf("SHE bits=%d want %d", got, 64*d)
	}
	if got := NewBLH(eps, d, nil).ReportBits(); got != 1 {
		t.Errorf("BLH bits=%d want 1", got)
	}
	hrr := NewHRR(eps, d, nil)
	if got := hrr.ReportBits(); got != 11 {
		t.Errorf("HRR bits=%d want 11", got)
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for d, want := range cases {
		if got := bitsFor(d); got != want {
			t.Errorf("bitsFor(%d)=%d want %d", d, got, want)
		}
	}
}
