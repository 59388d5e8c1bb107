package graph

import (
	"math"
	"testing"

	"repro/internal/ldprand"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestNoisyDegreesUnbiased(t *testing.T) {
	src := ldprand.NewSplitMix64(1)
	g := workload.BarabasiAlbert(src, 400, 10)
	noisy := NoisyDegrees(1.0, g, src)
	if len(noisy) != g.N {
		t.Fatalf("length %d", len(noisy))
	}
	var trueSum, noisySum float64
	for v := 0; v < g.N; v++ {
		trueSum += float64(g.Degree(v))
		noisySum += noisy[v]
	}
	// Noise is zero-mean; sums should agree within a few noise sigmas.
	sigma := math.Sqrt(float64(g.N) * 2) // var 2b² = 2 per vertex at ε=1
	if math.Abs(trueSum-noisySum) > 6*sigma {
		t.Errorf("degree sums differ: true %.0f noisy %.0f", trueSum, noisySum)
	}
}

func TestNoisyDegreesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NoisyDegrees(0, workload.NewGraph(1), nil)
}

func TestDegreeDistributionCloseToTruth(t *testing.T) {
	src := ldprand.NewSplitMix64(2)
	g := workload.BarabasiAlbert(src, 2000, 3)
	maxDeg := 0
	for _, d := range g.Degrees() {
		if d > maxDeg {
			maxDeg = d
		}
	}
	noisy := NoisyDegrees(2.0, g, src)
	est := DegreeDistribution(noisy, maxDeg)
	truth := TrueDegreeDistribution(g, maxDeg)
	if ks := stats.KSDistance(est, truth); ks > 0.1 {
		t.Errorf("degree distribution KS %.4f too large", ks)
	}
}

func TestDegreeDistributionEmpty(t *testing.T) {
	hist := DegreeDistribution(nil, 5)
	for _, v := range hist {
		if v != 0 {
			t.Fatal("empty input should give zero histogram")
		}
	}
}

func TestDegreeDistributionClamps(t *testing.T) {
	hist := DegreeDistribution([]float64{-3, 100}, 5)
	if hist[0] != 0.5 || hist[5] != 0.5 {
		t.Fatalf("clamping wrong: %v", hist)
	}
}

func TestGenParamsValidate(t *testing.T) {
	if err := (GenParams{Epsilon: 1, Clusters: 2}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (GenParams{Epsilon: 0, Clusters: 2}).Validate(); err == nil {
		t.Error("epsilon 0 accepted")
	}
	if err := (GenParams{Epsilon: 1, Clusters: 0}).Validate(); err == nil {
		t.Error("0 clusters accepted")
	}
}

func TestGeneratePreservesDegreeShape(t *testing.T) {
	src := ldprand.NewSplitMix64(3)
	g := workload.BarabasiAlbert(src, 600, 4)
	syn, err := Generate(GenParams{Epsilon: 4, Clusters: 4}, g, src)
	if err != nil {
		t.Fatal(err)
	}
	if syn.N != g.N {
		t.Fatalf("synthetic n=%d want %d", syn.N, g.N)
	}
	// Edge count within a factor of 2.
	ratio := float64(syn.Edges()) / float64(g.Edges())
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("edge ratio %.2f (syn %d, true %d)", ratio, syn.Edges(), g.Edges())
	}
	// Degree distributions not wildly different.
	maxDeg := 0
	for _, d := range append(g.Degrees(), syn.Degrees()...) {
		if d > maxDeg {
			maxDeg = d
		}
	}
	ks := stats.KSDistance(
		TrueDegreeDistribution(syn, maxDeg),
		TrueDegreeDistribution(g, maxDeg))
	if ks > 0.35 {
		t.Errorf("synthetic degree KS %.3f too large", ks)
	}
}

func TestGenerateEmptyGraph(t *testing.T) {
	syn, err := Generate(GenParams{Epsilon: 1, Clusters: 2}, workload.NewGraph(0), ldprand.NewSplitMix64(4))
	if err != nil {
		t.Fatal(err)
	}
	if syn.N != 0 {
		t.Fatalf("n=%d", syn.N)
	}
}

func TestGenerateRejectsBadParams(t *testing.T) {
	if _, err := Generate(GenParams{Epsilon: 0, Clusters: 1}, workload.NewGraph(2), nil); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestGenerateMoreClustersThanVertices(t *testing.T) {
	src := ldprand.NewSplitMix64(5)
	g := workload.BarabasiAlbert(src, 5, 2)
	syn, err := Generate(GenParams{Epsilon: 2, Clusters: 50}, g, src)
	if err != nil {
		t.Fatal(err)
	}
	if syn.N != 5 {
		t.Fatalf("n=%d", syn.N)
	}
}
