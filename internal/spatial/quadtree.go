package spatial

import (
	"fmt"
	"math"

	"repro/internal/ldprand"
	"repro/internal/postprocess"
	"repro/internal/workload"
)

// Quadtree is a multi-level spatial decomposition: level l covers the
// unit square with a 2^l × 2^l grid, each level fed by an equal share
// of the population through its own frequency oracle. Range queries
// use the canonical greedy decomposition (take whole cells from the
// coarsest level that fits, recurse into boundary cells), and the
// published estimates are reconciled across levels with
// inverse-variance parent/child consistency, which provably reduces
// variance over any single level.
type Quadtree struct {
	depth  int
	levels []*Grid // levels[i] has granularity 2^(i+1)
	src    ldprand.Source
}

// NewQuadtree returns a quadtree with the given depth (number of
// levels, each doubling granularity: 2×2 up to 2^depth × 2^depth).
func NewQuadtree(epsilon float64, depth int, src ldprand.Source) (*Quadtree, error) {
	if depth < 2 || depth > 8 {
		return nil, fmt.Errorf("spatial: quadtree depth must be in [2,8], got %d", depth)
	}
	if src == nil {
		src = ldprand.NewCrypto()
	}
	levels := make([]*Grid, depth)
	for i := range levels {
		g, err := NewGrid(epsilon, 1<<uint(i+1), src)
		if err != nil {
			return nil, err
		}
		levels[i] = g
	}
	return &Quadtree{depth: depth, levels: levels, src: src}, nil
}

// Collect routes one user to a uniformly random level (one report per
// user, full budget).
func (q *Quadtree) Collect(p workload.Point) {
	q.levels[ldprand.Intn(q.src, q.depth)].Collect(p)
}

// Collected returns the total reports across levels.
func (q *Quadtree) Collected() int {
	total := 0
	for _, g := range q.levels {
		total += g.Collected()
	}
	return total
}

// EstimateConsistent returns per-level cell estimates scaled to the
// full population and reconciled top-down: each parent and its four
// children are blended by inverse variance, so every level tells the
// same story. levels[i] has (2^(i+1))² entries.
func (q *Quadtree) EstimateConsistent() ([][]float64, error) {
	total := q.Collected()
	est := make([][]float64, q.depth)
	variances := make([]float64, q.depth)
	for i, g := range q.levels {
		sub := g.Collected()
		cells := g.EstimateCells()
		scale := 0.0
		if sub > 0 {
			scale = float64(total) / float64(sub)
		}
		scaled := make([]float64, len(cells))
		for c, v := range cells {
			scaled[c] = v * scale
		}
		est[i] = scaled
		if sub > 0 {
			variances[i] = q.levels[i].oracle.TheoreticalVariance(sub) * scale * scale
		} else {
			variances[i] = math.Inf(1)
		}
	}
	// Hay-et-al.-style two-pass consistency. Children of parent
	// (px, py) at level i are the four cells (2px+dx, 2py+dy) at level
	// i+1.
	childOf := func(level, pc, dx, dy int) int {
		gp := 1 << uint(level+1)
		px, py := pc%gp, pc/gp
		return (2*py+dy)*(2*gp) + (2*px + dx)
	}

	// Pass 1 (bottom-up): blend each parent with its children's sum by
	// inverse variance; the blended level's effective variance tightens
	// accordingly and feeds the next blend up.
	for i := q.depth - 2; i >= 0; i-- {
		if math.IsInf(variances[i], 1) || math.IsInf(variances[i+1], 1) {
			continue
		}
		varChildSum := 4 * variances[i+1]
		for pc := range est[i] {
			var childSum float64
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					childSum += est[i+1][childOf(i, pc, dx, dy)]
				}
			}
			blended, err := postprocess.WeightedAverage(est[i][pc], variances[i], childSum, varChildSum)
			if err != nil {
				return nil, err
			}
			est[i][pc] = blended
		}
		variances[i] = 1 / (1/variances[i] + 1/varChildSum)
	}

	// Pass 2 (top-down): spread each parent/child-sum residual evenly
	// over the children, establishing exact consistency at every level.
	for i := 0; i+1 < q.depth; i++ {
		if math.IsInf(variances[i+1], 1) {
			continue
		}
		for pc := range est[i] {
			var childSum float64
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					childSum += est[i+1][childOf(i, pc, dx, dy)]
				}
			}
			adjust := (est[i][pc] - childSum) / 4
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					est[i+1][childOf(i, pc, dx, dy)] += adjust
				}
			}
		}
	}
	return est, nil
}

// RangeCount answers a rectilinear query by greedy decomposition over
// the consistent estimates: starting from the coarsest level, whole
// cells inside the query are taken as-is, disjoint cells are skipped,
// and boundary cells recurse into their children; at the finest level
// boundary cells contribute fractionally by overlap area.
func (q *Quadtree) RangeCount(query Rect) (float64, error) {
	est, err := q.EstimateConsistent()
	if err != nil {
		return 0, err
	}
	var walk func(level, cell int) float64
	walk = func(level, cell int) float64 {
		g := q.levels[level]
		cr := g.CellRect(cell)
		overlap := Rect{
			MinX: math.Max(query.MinX, cr.MinX), MinY: math.Max(query.MinY, cr.MinY),
			MaxX: math.Min(query.MaxX, cr.MaxX), MaxY: math.Min(query.MaxY, cr.MaxY),
		}
		a := overlap.Area()
		if a <= 0 {
			return 0
		}
		if a >= cr.Area()-1e-12 { // fully contained
			return est[level][cell]
		}
		if level == q.depth-1 { // finest level: fractional
			return est[level][cell] * a / cr.Area()
		}
		// Recurse into the four children.
		gp := 1 << uint(level+1)
		px, py := cell%gp, cell/gp
		var sum float64
		for dy := 0; dy < 2; dy++ {
			for dx := 0; dx < 2; dx++ {
				sum += walk(level+1, (2*py+dy)*(2*gp)+(2*px+dx))
			}
		}
		return sum
	}
	var total float64
	for cell := 0; cell < 4; cell++ {
		total += walk(0, cell)
	}
	return total, nil
}
