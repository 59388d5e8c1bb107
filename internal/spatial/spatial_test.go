package spatial

import (
	"math"
	"testing"

	"repro/internal/ldprand"
	"repro/internal/workload"
)

func TestCellOfCorners(t *testing.T) {
	g, err := NewGrid(1, 4, ldprand.NewSplitMix64(1))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		p    workload.Point
		want int
	}{
		{workload.Point{X: 0, Y: 0}, 0},
		{workload.Point{X: 0.99, Y: 0}, 3},
		{workload.Point{X: 0, Y: 0.99}, 12},
		{workload.Point{X: 1, Y: 1}, 15},  // boundary clamps into the last cell
		{workload.Point{X: -1, Y: -1}, 0}, // clamped
		{workload.Point{X: 0.3, Y: 0.6}, 9},
	}
	for _, c := range cases {
		if got := g.CellOf(c.p); got != c.want {
			t.Errorf("CellOf(%+v)=%d want %d", c.p, got, c.want)
		}
	}
}

func TestCellRectRoundTrip(t *testing.T) {
	g, _ := NewGrid(1, 8, ldprand.NewSplitMix64(2))
	for cell := 0; cell < 64; cell++ {
		r := g.CellRect(cell)
		center := workload.Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
		if got := g.CellOf(center); got != cell {
			t.Fatalf("cell %d center maps to %d", cell, got)
		}
	}
}

func TestRectContainsAndArea(t *testing.T) {
	r := Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.6, MaxY: 0.4}
	if !r.Contains(workload.Point{X: 0.3, Y: 0.3}) {
		t.Error("interior point not contained")
	}
	if r.Contains(workload.Point{X: 0.7, Y: 0.3}) {
		t.Error("exterior point contained")
	}
	if math.Abs(r.Area()-0.08) > 1e-12 {
		t.Errorf("area %v want 0.08", r.Area())
	}
	if (Rect{MinX: 1, MaxX: 0, MinY: 0, MaxY: 1}).Area() != 0 {
		t.Error("inverted rect should have zero area")
	}
}

func TestGridRangeCountAccuracy(t *testing.T) {
	src := ldprand.NewSplitMix64(3)
	points := workload.Locations(src, workload.DefaultCityClusters(), 40000)
	g, err := NewGrid(2, 8, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		g.Collect(p)
	}
	if g.Collected() != len(points) {
		t.Fatalf("collected %d", g.Collected())
	}
	// Query aligned with cell boundaries to avoid discretization error.
	q := Rect{MinX: 0, MinY: 0, MaxX: 0.5, MaxY: 0.5}
	truth := 0
	for _, p := range points {
		if q.Contains(p) {
			truth++
		}
	}
	got := g.RangeCount(q)
	if math.Abs(got-float64(truth)) > 0.1*float64(len(points)) {
		t.Errorf("range count %.0f truth %d", got, truth)
	}
}

func TestHotspotsFindClusterCenters(t *testing.T) {
	src := ldprand.NewSplitMix64(4)
	clusters := workload.DefaultCityClusters()
	points := workload.Locations(src, clusters, 50000)
	g, _ := NewGrid(2, 10, src)
	for _, p := range points {
		g.Collect(p)
	}
	hot := g.Hotspots(5)
	if len(hot) != 5 {
		t.Fatalf("hotspots %v", hot)
	}
	// The top hotspot should be near the heaviest cluster center.
	r := g.CellRect(hot[0])
	cx, cy := (r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2
	c := clusters[0].Center
	dist := math.Hypot(cx-c.X, cy-c.Y)
	if dist > 0.25 {
		t.Errorf("top hotspot at (%.2f,%.2f), heaviest cluster at (%.2f,%.2f)", cx, cy, c.X, c.Y)
	}
}

func TestGranularityTradeoffShape(t *testing.T) {
	// The E8 ablation in miniature: for a boundary-crossing small query,
	// the error typically behaves differently across granularities; at
	// minimum both grids must produce finite sensible answers and the
	// noise of the very fine grid must exceed the coarse one's on a
	// cell-aligned query.
	src := ldprand.NewSplitMix64(6)
	points := workload.Locations(src, workload.DefaultCityClusters(), 30000)
	q := Rect{MinX: 0, MinY: 0, MaxX: 0.25, MaxY: 0.25}
	truth := 0
	for _, p := range points {
		if q.Contains(p) {
			truth++
		}
	}
	for _, gran := range []int{4, 16} {
		g, _ := NewGrid(1, gran, src)
		for _, p := range points {
			g.Collect(p)
		}
		got := g.RangeCount(q)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("granularity %d produced non-finite estimate", gran)
		}
		if math.Abs(got-float64(truth)) > 0.2*float64(len(points)) {
			t.Errorf("granularity %d: estimate %.0f truth %d", gran, got, truth)
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewGrid(1, 0, nil); err == nil {
		t.Error("granularity 0 accepted")
	}
	if _, err := NewGrid(1, 1, nil); err == nil {
		t.Error("1x1 grid accepted (single-cell domain)")
	}
}
