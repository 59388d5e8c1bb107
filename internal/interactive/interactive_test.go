package interactive

import (
	"math"
	"sort"
	"testing"

	"repro/internal/ldprand"
)

func TestQuantileParamsValidate(t *testing.T) {
	good := QuantileParams{Epsilon: 1, Lo: 0, Hi: 10, Rounds: 5, Q: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []QuantileParams{
		{Epsilon: 0, Lo: 0, Hi: 1, Rounds: 3, Q: 0.5},
		{Epsilon: 1, Lo: 1, Hi: 1, Rounds: 3, Q: 0.5},
		{Epsilon: 1, Lo: 0, Hi: 1, Rounds: 0, Q: 0.5},
		{Epsilon: 1, Lo: 0, Hi: 1, Rounds: 99, Q: 0.5},
		{Epsilon: 1, Lo: 0, Hi: 1, Rounds: 3, Q: 0},
		{Epsilon: 1, Lo: 0, Hi: 1, Rounds: 3, Q: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestMedianRecovery(t *testing.T) {
	src := ldprand.NewSplitMix64(1)
	// Values concentrated with a known median.
	const n = 100000
	values := make([]float64, n)
	for i := range values {
		values[i] = 20 + 8*ldprand.Normal(src) // median 20
	}
	got, err := Median(2, -50, 100, 10, values, src)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	trueMedian := sorted[n/2]
	if math.Abs(got-trueMedian) > 2.5 {
		t.Errorf("median %.2f true %.2f", got, trueMedian)
	}
}

func TestQuantile90(t *testing.T) {
	src := ldprand.NewSplitMix64(2)
	const n = 120000
	values := make([]float64, n)
	for i := range values {
		values[i] = 100 * ldprand.Float64(src) // uniform: q90 = 90
	}
	got, err := Quantile(QuantileParams{Epsilon: 2, Lo: 0, Hi: 100, Rounds: 10, Q: 0.9}, values, src)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-90) > 5 {
		t.Errorf("q90 estimate %.2f want about 90", got)
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(QuantileParams{Epsilon: 1, Lo: 0, Hi: 1, Rounds: 3, Q: 0.5}, nil, nil); err == nil {
		t.Error("empty values accepted")
	}
	// More rounds than users.
	if _, err := Quantile(QuantileParams{Epsilon: 1, Lo: 0, Hi: 1, Rounds: 10, Q: 0.5},
		[]float64{1, 2, 3}, ldprand.NewSplitMix64(1)); err == nil {
		t.Error("3 users across 10 rounds accepted")
	}
}

func TestRefinementGainGrowsWithDomain(t *testing.T) {
	g1 := RefinementGain(1, 64, 8, 10000)
	g2 := RefinementGain(1, 4096, 8, 10000)
	if g2 <= g1 {
		t.Errorf("gain should grow with domain: %v vs %v", g1, g2)
	}
	if g2 < 10 {
		t.Errorf("gain %v suspiciously small for d=4096 vs 9 candidates", g2)
	}
}
