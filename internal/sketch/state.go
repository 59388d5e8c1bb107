// Seed, Reset and Snapshot for the sketch substrates, so private sketch
// aggregators built on them (internal/task/cmstask) can shard, merge
// and checkpoint exactly (the state codec is in binary.go).
package sketch

// Seed returns the shared hash seed the sketch was built with.
func (c *CountMin) Seed() uint64 { return c.seed }

// Reset zeroes every counter and the population total.
func (c *CountMin) Reset() {
	for i := range c.rows {
		for j := range c.rows[i] {
			c.rows[i][j] = 0
		}
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

// Seed returns the shared hash seed the sketch was built with.
func (c *CountSketch) Seed() uint64 { return c.seed }

// Reset zeroes every counter.
func (c *CountSketch) Reset() {
	for i := range c.rows {
		for j := range c.rows[i] {
			c.rows[i][j] = 0
		}
	}
}

// Snapshot returns an independent deep copy of the sketch.
func (c *CountSketch) Snapshot() *CountSketch {
	cp := NewCountSketch(c.k, c.m, c.seed)
	for i := range c.rows {
		copy(cp.rows[i], c.rows[i])
	}
	return cp
}
