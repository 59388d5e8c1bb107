// Package sketch implements the count-min cell matrix that Apple's
// system builds on (§1.2(2)): k rows of m counters, one seeded hash
// per row. The private client/server protocol lives in internal/cms
// and its serving adapter in internal/task/cmstask, which folds
// privatized vectors straight into the rows and answers with its own
// debiased count-mean estimator; this package supplies the matrix, its
// hash positions, and its exact Merge, Snapshot, Reset and state codec
// (binary.go), so the adapter can shard, merge and checkpoint.
package sketch

import (
	"fmt"

	"repro/internal/hashutil"
)

// CountMin is a count-min sketch: k rows of m counters with independent
// seeded hash functions, plus the population total.
type CountMin struct {
	k, m  int
	seed  uint64
	rows  [][]float64
	total float64
}

// NewCountMin returns an empty count-min sketch with k rows of m
// counters, hashes derived from seed.
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

// rowSeed derives the hash seed of row i.
func (c *CountMin) rowSeed(i int) uint64 {
	return c.seed + uint64(i)*0x9e3779b97f4a7c15
}

// Position returns the counter index of item in row i.
func (c *CountMin) Position(i int, item []byte) int {
	return hashutil.HashBytesRange(c.rowSeed(i), item, c.m)
}

// Row exposes row i's counters for aggregators that fold privatized
// vectors directly into the sketch (Apple CMS server).
func (c *CountMin) Row(i int) []float64 { return c.rows[i] }

// AddToCell adds weight directly to a cell; used by private aggregators
// that debias before insertion.
func (c *CountMin) AddToCell(row, col int, weight float64) {
	c.rows[row][col] += weight
	// Note: callers tracking totals must call AddTotal; direct cell
	// updates do not imply one unit of population weight.
}

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
