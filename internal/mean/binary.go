// State codec for the mean estimators, mirroring the freq oracle
// layouts: a leading version byte (checked before anything else), the
// mechanism name and parameters, then the sum vector and report
// count. Decoding feeds the same applyState validation as the legacy
// JSON decoders.
package mean

import (
	"fmt"

	"repro/internal/binenc"
)

// binaryStateVersion tags the current state layouts; it is the first
// payload byte.
const binaryStateVersion = 0

// readBinaryStateVersion consumes and checks the leading version tag.
func readBinaryStateVersion(name string, r *binenc.Reader) error {
	version := int(r.Byte())
	if err := r.Err(); err != nil {
		return fmt.Errorf("mean: %s state: %w", name, err)
	}
	if version != 0 {
		return fmt.Errorf("mean: %s state: unsupported state version %d", name, version)
	}
	return nil
}

// MarshalState serializes the aggregate state.
func (d *Duchi) MarshalState() ([]byte, error) {
	w := binenc.NewWriter()
	defer w.Release()
	w.Byte(binaryStateVersion)
	w.String("duchi")
	w.Float64(d.epsilon)
	w.Float64(d.sum)
	w.Varint(int64(d.n))
	return append([]byte(nil), w.Bytes()...), nil
}

// UnmarshalState replaces the aggregate state with a marshalled one.
// Parameter mismatches (or malformed tallies) are an error and leave
// the receiver unchanged.
func (d *Duchi) UnmarshalState(data []byte) error {
	r := binenc.NewReader(data)
	if err := readBinaryStateVersion("Duchi", r); err != nil {
		return err
	}
	var st duchiState
	st.Mechanism = r.String()
	st.Epsilon = r.Float64()
	st.Sum = r.Float64()
	st.N = int(r.Varint())
	if err := r.Done(); err != nil {
		return fmt.Errorf("mean: Duchi state: %w", err)
	}
	return d.applyState(st)
}

// MarshalState serializes the aggregate state.
func (h *Harmony) MarshalState() ([]byte, error) {
	w := binenc.NewWriter()
	defer w.Release()
	w.Byte(binaryStateVersion)
	w.String("harmony")
	w.Float64(h.epsilon)
	w.Varint(int64(h.dim))
	w.PackedFloat64s(h.sums)
	w.Varint(int64(h.n))
	return append([]byte(nil), w.Bytes()...), nil
}

// UnmarshalState replaces the aggregate state with a marshalled one.
// Parameter mismatches (or malformed tallies) are an error and leave
// the receiver unchanged.
func (h *Harmony) UnmarshalState(data []byte) error {
	r := binenc.NewReader(data)
	if err := readBinaryStateVersion("Harmony", r); err != nil {
		return err
	}
	var st harmonyState
	st.Mechanism = r.String()
	st.Epsilon = r.Float64()
	st.Dim = int(r.Varint())
	st.Sums = r.PackedFloat64s()
	st.N = int(r.Varint())
	if err := r.Done(); err != nil {
		return fmt.Errorf("mean: Harmony state: %w", err)
	}
	return h.applyState(st)
}
