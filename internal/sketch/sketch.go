// Package sketch implements the count-min cell matrix that Apple's
// system builds on (§1.2(2)): k rows of m counters, one seeded hash
// per row. The private clients live in internal/cms, which also owns
// the row hash (cms.Params.Position), and the server is the sketch
// task in internal/task/cmstask, which folds privatized vectors
// straight into the rows and answers with its debiased count-mean
// estimator; this package supplies the matrix and its exact Merge,
// Snapshot, Reset and state codec (binary.go), so the task can shard,
// merge and checkpoint.
package sketch

import "fmt"

// CountMin is a count-min sketch: k rows of m counters plus the
// population total. The hash seed is carried, not used: the state
// layout records it and Merge refuses sketches hashed under another.
type CountMin struct {
	k, m  int
	seed  uint64
	rows  [][]float64
	total float64
}

// NewCountMin returns an empty count-min sketch with k rows of m
// counters, for items hashed under seed.
func NewCountMin(k, m int, seed uint64) *CountMin {
	if k <= 0 || m <= 0 {
		panic("sketch: k and m must be positive")
	}
	rows := make([][]float64, k)
	backing := make([]float64, k*m)
	for i := range rows {
		rows[i], backing = backing[:m], backing[m:]
	}
	return &CountMin{k: k, m: m, seed: seed, rows: rows}
}

// Row exposes row i's counters, into which the sketch task folds
// debiased CMS rows directly.
func (c *CountMin) Row(i int) []float64 { return c.rows[i] }

// AddToCell adds weight to one cell (a debiased HCMS coefficient). It
// leaves the population total to AddTotal.
func (c *CountMin) AddToCell(row, col int, weight float64) { c.rows[row][col] += weight }

// AddTotal adds weight to the population total.
func (c *CountMin) AddTotal(weight float64) { c.total += weight }

// Total returns the total weight added.
func (c *CountMin) Total() float64 { return c.total }

// Merge adds other's counters into c. Sketches must share k, m and seed,
// otherwise Merge returns an error: merging incompatible sketches would
// silently produce garbage estimates.
func (c *CountMin) Merge(other *CountMin) error {
	if c.k != other.k || c.m != other.m || c.seed != other.seed {
		return fmt.Errorf("sketch: incompatible count-min (k=%d,m=%d,seed=%d vs k=%d,m=%d,seed=%d)",
			c.k, c.m, c.seed, other.k, other.m, other.seed)
	}
	for i := range c.rows {
		for j := range c.rows[i] {
			c.rows[i][j] += other.rows[i][j]
		}
	}
	c.total += other.total
	return nil
}

// Reset zeroes every counter and the population total.
func (c *CountMin) Reset() {
	for i := range c.rows {
		clear(c.rows[i])
	}
	c.total = 0
}

// Snapshot returns an independent deep copy of the sketch.
func (c *CountMin) Snapshot() *CountMin {
	cp := NewCountMin(c.k, c.m, c.seed)
	for i := range c.rows {
		copy(cp.rows[i], c.rows[i])
	}
	cp.total = c.total
	return cp
}
