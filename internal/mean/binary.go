// State codec for the mean estimators, mirroring the freq oracle
// layouts: a leading version byte (checked before anything else), the
// mechanism name and parameters, then the sum vector and report
// count. A decoder reads every field and refuses parameter mismatches
// and malformed tallies before it installs anything.
package mean

import (
	"fmt"
	"math"

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
	if version != binaryStateVersion {
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
	mechanism, epsilon := r.String(), r.Float64()
	sum, n := r.Float64(), int(r.Varint())
	if err := r.Done(); err != nil {
		return fmt.Errorf("mean: Duchi state: %w", err)
	}
	if mechanism != "duchi" || epsilon != d.epsilon {
		return fmt.Errorf("mean: Duchi state parameter mismatch")
	}
	if n < 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		return fmt.Errorf("mean: Duchi state has malformed tallies")
	}
	d.sum, d.n = sum, n
	return nil
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
	mechanism, epsilon, dim := r.String(), r.Float64(), int(r.Varint())
	sums, n := r.PackedFloat64s(), int(r.Varint())
	if err := r.Done(); err != nil {
		return fmt.Errorf("mean: Harmony state: %w", err)
	}
	if mechanism != "harmony" || epsilon != h.epsilon || dim != h.dim {
		return fmt.Errorf("mean: Harmony state parameter mismatch")
	}
	if n < 0 || len(sums) != h.dim {
		return fmt.Errorf("mean: Harmony state has malformed tallies")
	}
	for _, s := range sums {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("mean: Harmony state has malformed tallies")
		}
	}
	copy(h.sums, sums)
	h.n = n
	return nil
}
