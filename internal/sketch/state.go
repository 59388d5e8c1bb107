// State validation for the sketch substrates, so private sketch
// aggregators built on them (internal/task/cmstask) can checkpoint and
// restore exactly (the codec is in binary.go). The JSON decoders here
// are the read-only legacy input.
package sketch

import (
	"encoding/json"
	"fmt"
	"math"
)

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

// countMinState is the serialized form of a CountMin sketch.
type countMinState struct {
	V     int       `json:"v,omitempty"` // 0 = current format; others refused
	K     int       `json:"k"`
	M     int       `json:"m"`
	Seed  uint64    `json:"seed"`
	Rows  []float64 `json:"rows"` // k*m counters, row-major
	Total float64   `json:"total"`
}

// UnmarshalLegacyState restores a JSON state written by a build that
// predates the binary layout; errors leave the receiver unchanged.
func (c *CountMin) UnmarshalLegacyState(data []byte) error {
	var st countMinState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("sketch: count-min state: %w", err)
	}
	return c.applyState(st)
}

// applyState validates a decoded state (shared by the binary and the
// legacy JSON decoder) and installs it.
func (c *CountMin) applyState(st countMinState) error {
	if st.V != 0 {
		return fmt.Errorf("sketch: count-min state: unsupported state version %d", st.V)
	}
	if st.K != c.k || st.M != c.m || st.Seed != c.seed {
		return fmt.Errorf("sketch: count-min state parameter mismatch")
	}
	if len(st.Rows) != c.k*c.m || !finite(st.Total) {
		return fmt.Errorf("sketch: count-min state has malformed counters")
	}
	for _, v := range st.Rows {
		if !finite(v) {
			return fmt.Errorf("sketch: count-min state has malformed counters")
		}
	}
	for i := range c.rows {
		copy(c.rows[i], st.Rows[i*c.m:(i+1)*c.m])
	}
	c.total = st.Total
	return nil
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

// countSketchState is the serialized form of a CountSketch.
type countSketchState struct {
	V    int       `json:"v,omitempty"` // 0 = current format; others refused
	K    int       `json:"k"`
	M    int       `json:"m"`
	Seed uint64    `json:"seed"`
	Rows []float64 `json:"rows"` // k*m counters, row-major
}

// UnmarshalLegacyState restores a JSON state written by a build that
// predates the binary layout; errors leave c unchanged.
func (c *CountSketch) UnmarshalLegacyState(data []byte) error {
	var st countSketchState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("sketch: count sketch state: %w", err)
	}
	return c.applyState(st)
}

// applyState validates a decoded state (shared by the binary and the
// legacy JSON decoder) and installs it.
func (c *CountSketch) applyState(st countSketchState) error {
	if st.V != 0 {
		return fmt.Errorf("sketch: count sketch state: unsupported state version %d", st.V)
	}
	if st.K != c.k || st.M != c.m || st.Seed != c.seed {
		return fmt.Errorf("sketch: count sketch state parameter mismatch")
	}
	if len(st.Rows) != c.k*c.m {
		return fmt.Errorf("sketch: count sketch state has malformed counters")
	}
	for _, v := range st.Rows {
		if !finite(v) {
			return fmt.Errorf("sketch: count sketch state has malformed counters")
		}
	}
	for i := range c.rows {
		copy(c.rows[i], st.Rows[i*c.m:(i+1)*c.m])
	}
	return nil
}

// finite reports whether v is a usable counter value.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
