package spatial

import (
	"math"
	"testing"

	"repro/internal/ldprand"
	"repro/internal/workload"
)

func TestNewQuadtreeValidation(t *testing.T) {
	if _, err := NewQuadtree(1, 1, nil); err == nil {
		t.Error("depth 1 accepted")
	}
	if _, err := NewQuadtree(1, 9, nil); err == nil {
		t.Error("depth 9 accepted")
	}
	qt, err := NewQuadtree(1, 3, ldprand.NewSplitMix64(1))
	if err != nil {
		t.Fatal(err)
	}
	if qt.depth != 3 {
		t.Fatalf("depth %d", qt.depth)
	}
}

func TestQuadtreeRoutesAllUsers(t *testing.T) {
	src := ldprand.NewSplitMix64(2)
	qt, _ := NewQuadtree(2, 3, src)
	points := workload.Locations(src, workload.DefaultCityClusters(), 9000)
	for _, p := range points {
		qt.Collect(p)
	}
	if qt.Collected() != len(points) {
		t.Fatalf("collected %d want %d", qt.Collected(), len(points))
	}
	// Levels get roughly equal shares.
	for i, g := range qt.levels {
		if g.Collected() < len(points)/6 {
			t.Errorf("level %d has only %d reports", i, g.Collected())
		}
	}
}

func TestConsistencyMakesLevelsAgree(t *testing.T) {
	src := ldprand.NewSplitMix64(3)
	qt, _ := NewQuadtree(2, 3, src)
	points := workload.Locations(src, workload.DefaultCityClusters(), 30000)
	for _, p := range points {
		qt.Collect(p)
	}
	est, err := qt.EstimateConsistent()
	if err != nil {
		t.Fatal(err)
	}
	// After reconciliation, every parent equals the sum of its children.
	for level := 0; level+1 < qt.depth; level++ {
		gp := 1 << uint(level+1)
		for pc := range est[level] {
			px, py := pc%gp, pc/gp
			var childSum float64
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					childSum += est[level+1][(2*py+dy)*(2*gp)+(2*px+dx)]
				}
			}
			if math.Abs(est[level][pc]-childSum) > 1e-6*(1+math.Abs(childSum)) {
				t.Fatalf("level %d cell %d: parent %.2f != child sum %.2f",
					level, pc, est[level][pc], childSum)
			}
		}
	}
}

func TestQuadtreeRangeCountAccuracy(t *testing.T) {
	src := ldprand.NewSplitMix64(4)
	qt, _ := NewQuadtree(2, 4, src)
	points := workload.Locations(src, workload.DefaultCityClusters(), 60000)
	for _, p := range points {
		qt.Collect(p)
	}
	queries := []Rect{
		{MinX: 0, MinY: 0, MaxX: 0.5, MaxY: 0.5},
		{MinX: 0.25, MinY: 0.25, MaxX: 0.75, MaxY: 0.75},
		{MinX: 0.1, MinY: 0.6, MaxX: 0.9, MaxY: 0.95},
	}
	for _, query := range queries {
		truth := 0.0
		for _, p := range points {
			if query.Contains(p) {
				truth++
			}
		}
		got, err := qt.RangeCount(query)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-truth) > 0.12*float64(len(points)) {
			t.Errorf("query %+v: estimate %.0f truth %.0f", query, got, truth)
		}
	}
}

func TestQuadtreeFullSquare(t *testing.T) {
	src := ldprand.NewSplitMix64(5)
	qt, _ := NewQuadtree(2, 3, src)
	points := workload.Locations(src, workload.DefaultCityClusters(), 20000)
	for _, p := range points {
		qt.Collect(p)
	}
	got, err := qt.RangeCount(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-float64(len(points))) > 0.1*float64(len(points)) {
		t.Fatalf("full square %.0f want about %d", got, len(points))
	}
}

func TestQuadtreeEmpty(t *testing.T) {
	qt, _ := NewQuadtree(1, 2, ldprand.NewSplitMix64(6))
	got, err := qt.RangeCount(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("empty quadtree count %v", got)
	}
}
