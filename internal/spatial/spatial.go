// Package spatial implements private location collection (§1.3): user
// positions in the unit square are discretized onto a uniform grid and
// collected through a frequency oracle, supporting rectilinear range
// queries and hotspot detection. A multi-level quadtree trades off the
// grid-granularity dilemma the E8 ablation measures: finer grids reduce
// discretization error but spread the privacy noise over more cells.
package spatial

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/freq"
	"repro/internal/ldprand"
	"repro/internal/workload"
)

// Rect is an axis-aligned query rectangle within the unit square; Min
// is inclusive, Max exclusive.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Contains reports whether the point lies inside the rectangle.
func (r Rect) Contains(p workload.Point) bool {
	return p.X >= r.MinX && p.X < r.MaxX && p.Y >= r.MinY && p.Y < r.MaxY
}

// Area returns the rectangle's area (0 for inverted rectangles).
func (r Rect) Area() float64 {
	w, h := r.MaxX-r.MinX, r.MaxY-r.MinY
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// Grid collects points onto a g×g uniform grid with an OLH frequency
// oracle over the g² cells.
type Grid struct {
	g      int
	oracle freq.Oracle
}

// NewGrid returns a grid collector with granularity g and budget
// epsilon. A nil source selects crypto/rand.
func NewGrid(epsilon float64, g int, src ldprand.Source) (*Grid, error) {
	if g < 1 {
		return nil, fmt.Errorf("spatial: granularity must be at least 1, got %d", g)
	}
	if g*g < 2 {
		return nil, fmt.Errorf("spatial: grid must have at least 2 cells")
	}
	return &Grid{g: g, oracle: freq.NewOLH(epsilon, g*g, src)}, nil
}

// CellOf returns the cell index of a point (row-major).
func (gr *Grid) CellOf(p workload.Point) int {
	cx := int(p.X * float64(gr.g))
	cy := int(p.Y * float64(gr.g))
	if cx >= gr.g {
		cx = gr.g - 1
	}
	if cy >= gr.g {
		cy = gr.g - 1
	}
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	return cy*gr.g + cx
}

// CellRect returns the rectangle covered by a cell index.
func (gr *Grid) CellRect(cell int) Rect {
	cx, cy := cell%gr.g, cell/gr.g
	s := 1 / float64(gr.g)
	return Rect{
		MinX: float64(cx) * s, MinY: float64(cy) * s,
		MaxX: float64(cx+1) * s, MaxY: float64(cy+1) * s,
	}
}

// Collect privatizes and aggregates one user position.
func (gr *Grid) Collect(p workload.Point) {
	gr.oracle.Collect(gr.CellOf(p))
}

// Collected returns the number of reports.
func (gr *Grid) Collected() int { return gr.oracle.Collected() }

// EstimateCells returns estimated per-cell counts.
func (gr *Grid) EstimateCells() []float64 { return gr.oracle.EstimateCounts() }

// RangeCount answers a rectilinear counting query: estimated number of
// users inside the rectangle. Boundary cells contribute fractionally by
// overlap area, the uniformity assumption standard in this literature.
func (gr *Grid) RangeCount(q Rect) float64 {
	cells := gr.EstimateCells()
	var total float64
	for cell, count := range cells {
		cr := gr.CellRect(cell)
		overlap := Rect{
			MinX: math.Max(q.MinX, cr.MinX), MinY: math.Max(q.MinY, cr.MinY),
			MaxX: math.Min(q.MaxX, cr.MaxX), MaxY: math.Min(q.MaxY, cr.MaxY),
		}
		if a := overlap.Area(); a > 0 {
			total += count * a / cr.Area()
		}
	}
	return total
}

// Hotspots returns the k cells with the largest estimated counts, in
// decreasing order.
func (gr *Grid) Hotspots(k int) []int {
	counts := gr.EstimateCells()
	idx := make([]int, len(counts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return counts[idx[a]] > counts[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}
