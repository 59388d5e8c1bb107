// State codec for the count-min sketch. The counter matrix dominates
// a sketch snapshot (a realistic Apple-CMS deployment is 2¹⁶ × 2¹⁰
// float64 cells), so the layout writes it as raw 8-byte words streamed
// row by row — no flattened copy on encode, no number parsing on
// restore — under a single length prefix. The leading version byte is
// checked before the payload is read, and a decoder refuses parameter
// mismatches and malformed counters before it installs anything.
package sketch

import (
	"fmt"
	"math"

	"repro/internal/binenc"
)

// binaryStateVersion tags the current sketch layout; it is the first
// payload byte.
const binaryStateVersion = 0

// MarshalState serializes the sketch (parameters and counters).
func (c *CountMin) MarshalState() ([]byte, error) {
	w := binenc.NewWriter()
	defer w.Release()
	w.Byte(binaryStateVersion)
	w.Varint(int64(c.k))
	w.Varint(int64(c.m))
	w.Uint64(c.seed)
	w.Uvarint(uint64(c.k * c.m))
	for _, row := range c.rows {
		w.RawFloat64s(row)
	}
	w.Float64(c.total)
	return append([]byte(nil), w.Bytes()...), nil
}

// UnmarshalState replaces the counters with a marshalled state. The
// state must come from a sketch with identical parameters — restoring
// onto different hash functions would silently misattribute every
// counter — and malformed states leave the receiver unchanged.
func (c *CountMin) UnmarshalState(data []byte) error {
	r := binenc.NewReader(data)
	version := int(r.Byte())
	if err := r.Err(); err != nil {
		return fmt.Errorf("sketch: count-min state: %w", err)
	}
	if version != binaryStateVersion {
		return fmt.Errorf("sketch: count-min state: unsupported state version %d", version)
	}
	k, m, seed := int(r.Varint()), int(r.Varint()), r.Uint64()
	cells, total := r.Float64s(), r.Float64() // k*m counters, row-major
	if err := r.Done(); err != nil {
		return fmt.Errorf("sketch: count-min state: %w", err)
	}
	if k != c.k || m != c.m || seed != c.seed {
		return fmt.Errorf("sketch: count-min state parameter mismatch")
	}
	if !soundCells(cells, c.k*c.m) || !finite(total) {
		return fmt.Errorf("sketch: count-min state has malformed counters")
	}
	for i := range c.rows {
		copy(c.rows[i], cells[i*c.m:(i+1)*c.m])
	}
	c.total = total
	return nil
}

// finite reports whether v is a usable counter value.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// soundCells reports whether a decoded counter matrix has the
// receiver's size and only usable values.
func soundCells(cells []float64, want int) bool {
	if len(cells) != want {
		return false
	}
	for _, v := range cells {
		if !finite(v) {
			return false
		}
	}
	return true
}
