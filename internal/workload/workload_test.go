package workload

import (
	"math"
	"testing"

	"repro/internal/ldprand"
)

func src(seed uint64) ldprand.Source { return ldprand.NewSplitMix64(seed) }

// TestZipfEmpiricalMatchesExact checks the sampler against the exact
// law P(k) = (k+1)^−s / Σ_j (j+1)^−s, uniform at s = 0.
func TestZipfEmpiricalMatchesExact(t *testing.T) {
	const d, n = 20, 200000
	for _, s := range []float64{0, 1} {
		z := NewZipf(src(42), s, d)
		var norm float64
		for k := 1; k <= d; k++ {
			norm += math.Pow(float64(k), -s)
		}
		counts := make([]int, d)
		for i := 0; i < n; i++ {
			counts[z.Next()]++
		}
		for k, c := range counts {
			want := math.Pow(float64(k+1), -s) / norm
			if got := float64(c) / n; math.Abs(got-want) > 0.01 {
				t.Errorf("s=%v value %d: frequency %.4f want %.4f", s, k, got, want)
			}
		}
	}
}

// TestZipfUniformWhenSZero checks the exact table: at s = 0 every
// value carries probability 1/n.
func TestZipfUniformWhenSZero(t *testing.T) {
	z := NewZipf(src(1), 0, 10)
	prev := 0.0
	for k, c := range z.cdf {
		if p := c - prev; math.Abs(p-0.1) > 1e-9 {
			t.Fatalf("s=0 should be uniform, value %d has %v", k, p)
		}
		prev = c
	}
}

func TestZipfPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewZipf(src(1), 1, 0) },
		func() { NewZipf(src(1), -1, 10) },
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

func TestCategoricalCalibration(t *testing.T) {
	c := NewCategorical(src(9), []float64{1, 3, 0, 6})
	const n = 100000
	counts := make([]int, 4)
	for i := 0; i < n; i++ {
		counts[c.Next()]++
	}
	want := []float64{0.1, 0.3, 0, 0.6}
	for i := range want {
		got := float64(counts[i]) / n
		if math.Abs(got-want[i]) > 0.01 {
			t.Errorf("bucket %d: %.3f want %.3f", i, got, want[i])
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewCategorical(src(1), nil) },
		func() { NewCategorical(src(1), []float64{0, 0}) },
		func() { NewCategorical(src(1), []float64{1, -1}) },
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

func TestURLsAndWordsDeterministic(t *testing.T) {
	a, b := URLs(10), URLs(10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("URLs not deterministic")
		}
	}
	w := Words(30)
	seen := make(map[string]bool)
	for _, s := range w {
		if len(s) != 6 {
			t.Fatalf("word %q not 6 letters", s)
		}
		if seen[s] {
			t.Fatalf("duplicate word %q", s)
		}
		seen[s] = true
	}
}

func TestLocationsInUnitSquare(t *testing.T) {
	pts := Locations(src(5), DefaultCityClusters(), 5000)
	if len(pts) != 5000 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
			t.Fatalf("point %+v outside unit square", p)
		}
	}
}

func TestLocationsClusterMass(t *testing.T) {
	clusters := DefaultCityClusters()
	pts := Locations(src(7), clusters, 20000)
	// Count points within 3 sigma of the heaviest cluster center.
	c := clusters[0]
	near := 0
	for _, p := range pts {
		dx, dy := p.X-c.Center.X, p.Y-c.Center.Y
		if math.Sqrt(dx*dx+dy*dy) < 3*c.Sigma {
			near++
		}
	}
	frac := float64(near) / 20000
	if frac < c.Weight*0.8 {
		t.Errorf("only %.2f of mass near heaviest cluster, want at least %.2f", frac, c.Weight*0.8)
	}
}

func TestBinaryRecordsMarginals(t *testing.T) {
	probs := []float64{0.2, 0.5, 0.8}
	recs := BinaryRecords(src(11), probs, 100000)
	for j, p := range probs {
		ones := 0
		for _, r := range recs {
			if r&(1<<uint(j)) != 0 {
				ones++
			}
		}
		got := float64(ones) / float64(len(recs))
		if math.Abs(got-p) > 0.01 {
			t.Errorf("attribute %d: frequency %.3f want %.3f", j, got, p)
		}
	}
}

func TestCorrelatedBinaryRecordsCorrelate(t *testing.T) {
	recs := CorrelatedBinaryRecords(src(13), 4, 0.5, 0.9, 50000)
	// Adjacent attributes should agree much more often than 50%.
	agree := 0
	for _, r := range recs {
		b0 := r & 1
		b1 := (r >> 1) & 1
		if b0 == b1 {
			agree++
		}
	}
	frac := float64(agree) / float64(len(recs))
	if frac < 0.85 {
		t.Errorf("adjacent agreement %.3f, want > 0.85 with corr=0.9", frac)
	}
}

func TestCountersInRange(t *testing.T) {
	cs := Counters(src(17), 24, 10000)
	var sum float64
	for _, c := range cs {
		if c < 0 || c > 24 {
			t.Fatalf("counter %v out of range", c)
		}
		sum += c
	}
	mean := sum / float64(len(cs))
	// E[u²]·24 = 8 for uniform u.
	if math.Abs(mean-8) > 0.5 {
		t.Errorf("counter mean %.2f want about 8", mean)
	}
}

func TestDriftingCountersShape(t *testing.T) {
	mat := DriftingCounters(src(19), 10, 100, 5, 0.1)
	if len(mat) != 5 || len(mat[0]) != 100 {
		t.Fatalf("shape %dx%d want 5x100", len(mat), len(mat[0]))
	}
	// Rounds must be snapshots, not aliases.
	mat[0][0] = 999
	if mat[1][0] == 999 {
		t.Fatal("rounds alias the same slice")
	}
	for r := range mat {
		for _, v := range mat[r] {
			if v < 0 || v > 10 {
				if v != 999 {
					t.Fatalf("value %v out of range", v)
				}
			}
		}
	}
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(3, 3) // self-loop ignored
	if g.Edges() != 3 {
		t.Fatalf("edges=%d want 3", g.Edges())
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Fatalf("degrees wrong: %v", g.Degrees())
	}
	// Triangle 0-1-2: clustering coefficient 1.
	if cc := g.ClusteringCoefficient(); cc != 1 {
		t.Fatalf("clustering %v want 1", cc)
	}
}

func TestBarabasiAlbertDegrees(t *testing.T) {
	g := BarabasiAlbert(src(29), 500, 3)
	if g.N != 500 {
		t.Fatalf("n=%d", g.N)
	}
	degs := g.Degrees()
	minDeg, maxDeg := degs[0], degs[0]
	for _, d := range degs {
		if d < minDeg {
			minDeg = d
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	if minDeg < 1 {
		t.Error("BA graph has isolated vertex")
	}
	// Preferential attachment should produce hubs much larger than m.
	if maxDeg < 10 {
		t.Errorf("max degree %d suspiciously small for BA", maxDeg)
	}
}

func TestBarabasiAlbertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BarabasiAlbert(src(1), 3, 3)
}
