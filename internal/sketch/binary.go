// State codec for the sketch substrates. The counter matrix dominates
// a sketch snapshot (a realistic Apple-CMS deployment is 2¹⁶ × 2¹⁰
// float64 cells), so the layout writes it as raw 8-byte words streamed
// row by row — no flattened copy on encode, no number parsing on
// restore — under a single length prefix. The leading version byte is
// checked before the payload is read, and decoding feeds the same
// applyState validation as the legacy JSON decoders.
package sketch

import (
	"fmt"

	"repro/internal/binenc"
)

// binaryStateVersion tags the current sketch layouts; it is the first
// payload byte.
const binaryStateVersion = 0

// readBinaryStateVersion consumes and checks the leading version tag.
func readBinaryStateVersion(name string, r *binenc.Reader) error {
	version := int(r.Byte())
	if err := r.Err(); err != nil {
		return fmt.Errorf("sketch: %s state: %w", name, err)
	}
	if version != 0 {
		return fmt.Errorf("sketch: %s state: unsupported state version %d", name, version)
	}
	return nil
}

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
	if err := readBinaryStateVersion("count-min", r); err != nil {
		return err
	}
	var st countMinState
	st.K = int(r.Varint())
	st.M = int(r.Varint())
	st.Seed = r.Uint64()
	st.Rows = r.Float64s()
	st.Total = r.Float64()
	if err := r.Done(); err != nil {
		return fmt.Errorf("sketch: count-min state: %w", err)
	}
	return c.applyState(st)
}

// MarshalState serializes the sketch (parameters and counters).
func (c *CountSketch) MarshalState() ([]byte, error) {
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
	return append([]byte(nil), w.Bytes()...), nil
}

// UnmarshalState replaces the counters with a marshalled state; the
// parameters must match and malformed states leave c unchanged.
func (c *CountSketch) UnmarshalState(data []byte) error {
	r := binenc.NewReader(data)
	if err := readBinaryStateVersion("count sketch", r); err != nil {
		return err
	}
	var st countSketchState
	st.K = int(r.Varint())
	st.M = int(r.Varint())
	st.Seed = r.Uint64()
	st.Rows = r.Float64s()
	if err := r.Done(); err != nil {
		return fmt.Errorf("sketch: count sketch state: %w", err)
	}
	return c.applyState(st)
}
