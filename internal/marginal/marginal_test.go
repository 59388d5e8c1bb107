package marginal

import (
	"math"
	"testing"

	"repro/internal/ldprand"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestFourierParamsValidate(t *testing.T) {
	good := FourierParams{Epsilon: 1, D: 6, K: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []FourierParams{
		{Epsilon: 0, D: 6, K: 2},
		{Epsilon: 1, D: 0, K: 1},
		{Epsilon: 1, D: 21, K: 1},
		{Epsilon: 1, D: 6, K: 0},
		{Epsilon: 1, D: 6, K: 7},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestFourierCoefficientsAccurate(t *testing.T) {
	// Independent attributes with known marginals: f̂({j}) = 1 − 2p_j.
	probs := []float64{0.2, 0.5, 0.8, 0.35}
	src := ldprand.NewSplitMix64(1)
	records := workload.BinaryRecords(src, probs, 80000)
	f, err := NewFourier(FourierParams{Epsilon: 2, D: 4, K: 2}, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		f.Collect(r)
	}
	coefs := f.Coefficients()
	if coefs[0] != 1 {
		t.Errorf("empty coefficient %v want exactly 1", coefs[0])
	}
	for j, p := range probs {
		mask := 1 << uint(j)
		want := 1 - 2*p
		if math.Abs(coefs[mask]-want) > 0.05 {
			t.Errorf("coef mask %b: %.3f want %.3f", mask, coefs[mask], want)
		}
	}
}

func TestFourierMarginalReconstruction(t *testing.T) {
	probs := []float64{0.3, 0.7, 0.5, 0.4, 0.6}
	src := ldprand.NewSplitMix64(2)
	records := workload.BinaryRecords(src, probs, 120000)
	f, _ := NewFourier(FourierParams{Epsilon: 3, D: 5, K: 2}, src)
	for _, r := range records {
		f.Collect(r)
	}
	// Check every 2-way marginal against the truth.
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			mask := 1<<uint(a) | 1<<uint(b)
			got, err := f.Marginal(mask)
			if err != nil {
				t.Fatal(err)
			}
			truth := TrueMarginal(mask, 5, records)
			tv := stats.TotalVariation(got, truth)
			if tv > 0.08 {
				t.Errorf("marginal %b: TV %.4f too large (got %v truth %v)", mask, tv, got, truth)
			}
		}
	}
}

func TestMarginalTableIsDistribution(t *testing.T) {
	src := ldprand.NewSplitMix64(3)
	records := workload.CorrelatedBinaryRecords(src, 6, 0.5, 0.8, 50000)
	f, _ := NewFourier(FourierParams{Epsilon: 2, D: 6, K: 3}, src)
	for _, r := range records {
		f.Collect(r)
	}
	table, err := f.Marginal(0b111)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range table {
		sum += v
	}
	// Sums to 1 exactly (the empty coefficient is pinned to 1).
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("marginal sums to %v", sum)
	}
}

func TestMarginalRejectsTooWideMask(t *testing.T) {
	f, _ := NewFourier(FourierParams{Epsilon: 1, D: 5, K: 2}, ldprand.NewSplitMix64(4))
	if _, err := f.Marginal(0b111); err == nil {
		t.Fatal("3-way marginal accepted with K=2")
	}
	if _, err := f.Marginal(1 << 10); err == nil {
		t.Fatal("out-of-domain mask accepted")
	}
}

func TestFourierValidatesReports(t *testing.T) {
	f, _ := NewFourier(FourierParams{Epsilon: 1, D: 3, K: 1}, ldprand.NewSplitMix64(5))
	for _, fn := range []func(){
		func() { f.Aggregate(FourierReport{MaskIndex: 99, Sign: 1}) },
		func() { f.Aggregate(FourierReport{MaskIndex: 0, Sign: 2}) },
		func() { f.Collect(8) },
		func() { f.Collect(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestTrueMarginalKnownCase(t *testing.T) {
	// Records over 2 attributes: 00, 01, 01, 11.
	records := []int{0b00, 0b01, 0b01, 0b11}
	table := TrueMarginal(0b11, 2, records)
	want := []float64{0.25, 0.5, 0, 0.25}
	for i := range want {
		if math.Abs(table[i]-want[i]) > 1e-12 {
			t.Fatalf("table %v want %v", table, want)
		}
	}
	// Single-attribute marginal of attribute 1.
	t1 := TrueMarginal(0b10, 2, records)
	if math.Abs(t1[0]-0.75) > 1e-12 || math.Abs(t1[1]-0.25) > 1e-12 {
		t.Fatalf("attr-1 marginal %v", t1)
	}
}

func TestFullMaterializationMarginal(t *testing.T) {
	src := ldprand.NewSplitMix64(6)
	probs := []float64{0.3, 0.6, 0.5}
	records := workload.BinaryRecords(src, probs, 60000)
	fm, err := NewFullMaterialization(2, 3, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		fm.Collect(r)
	}
	got := fm.Marginal(0b011)
	truth := TrueMarginal(0b011, 3, records)
	if tv := stats.TotalVariation(got, truth); tv > 0.1 {
		t.Errorf("full materialization TV %.4f", tv)
	}
	if _, err := NewFullMaterialization(1, 17, nil); err == nil {
		t.Error("d=17 accepted for full materialization")
	}
}

func TestDirectMarginal(t *testing.T) {
	src := ldprand.NewSplitMix64(7)
	probs := []float64{0.3, 0.6, 0.5, 0.2}
	records := workload.BinaryRecords(src, probs, 80000)
	masks := []int{0b0011, 0b1100}
	dr, err := NewDirect(2, 4, masks, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		dr.Collect(r)
	}
	for i, mask := range masks {
		got := dr.Marginal(i)
		truth := TrueMarginal(mask, 4, records)
		if tv := stats.TotalVariation(got, truth); tv > 0.1 {
			t.Errorf("direct marginal %b: TV %.4f", mask, tv)
		}
	}
	if _, err := NewDirect(1, 4, nil, nil); err == nil {
		t.Error("empty mask list accepted")
	}
	if _, err := NewDirect(1, 4, []int{0}, nil); err == nil {
		t.Error("empty mask accepted")
	}
}

func TestFourierBeatsFullMaterializationLowOrder(t *testing.T) {
	// The E9 claim: for low-order marginals over many attributes, the
	// Fourier approach needs far fewer effective samples than a 2^d
	// histogram. With d=10 and modest n, Fourier should have lower TV
	// on 2-way marginals.
	const d, n = 10, 40000
	src := ldprand.NewSplitMix64(8)
	probs := make([]float64, d)
	for i := range probs {
		probs[i] = 0.3 + 0.04*float64(i)
	}
	records := workload.BinaryRecords(src, probs, n)

	fourier, _ := NewFourier(FourierParams{Epsilon: 1, D: d, K: 2}, src)
	full, _ := NewFullMaterialization(1, d, src)
	for _, r := range records {
		fourier.Collect(r)
		full.Collect(r)
	}
	mask := 0b11
	truth := TrueMarginal(mask, d, records)
	fTable, _ := fourier.Marginal(mask)
	tvFourier := stats.TotalVariation(fTable, truth)
	tvFull := stats.TotalVariation(full.Marginal(mask), truth)
	if tvFourier > tvFull {
		t.Errorf("Fourier TV %.4f should beat full materialization TV %.4f at d=%d n=%d",
			tvFourier, tvFull, d, n)
	}
}
