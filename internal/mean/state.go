// Mergeability and state validation for the mean estimators, the
// properties that let them ride the sharded collection pipeline: both
// accumulators are a sum (or sum vector) and a count, so merging is
// exact and the state round trip (binary.go) reproduces estimates bit
// for bit — the same contract freq.Oracle gives the frequency path.
// The JSON decoders here are the read-only legacy input.
package mean

import (
	"encoding/json"
	"fmt"
	"math"
)

// Epsilon returns the privacy budget the estimator was built with.
func (d *Duchi) Epsilon() float64 { return d.epsilon }

// Merge folds other's aggregate into d. The two estimators must share
// epsilon exactly: their reports are scaled by the ε-dependent constant
// C, so merging across budgets would mix incompatible magnitudes.
func (d *Duchi) Merge(other *Duchi) error {
	if other.epsilon != d.epsilon {
		return fmt.Errorf("mean: Duchi merge epsilon mismatch (%v vs %v)", d.epsilon, other.epsilon)
	}
	d.sum += other.sum
	d.n += other.n
	return nil
}

// Snapshot returns an independent copy of the aggregate state. The
// copy shares the randomness source: snapshots are for reads and
// merging, not concurrent privatization.
func (d *Duchi) Snapshot() *Duchi {
	cp := *d
	return &cp
}

// duchiState is the serialized aggregate of a Duchi estimator.
type duchiState struct {
	V         int     `json:"v,omitempty"` // 0 = current format; others refused
	Mechanism string  `json:"mechanism"`
	Epsilon   float64 `json:"epsilon"`
	Sum       float64 `json:"sum"`
	N         int     `json:"n"`
}

// UnmarshalLegacyState restores a JSON state written by a build that
// predates the binary layout; errors leave the receiver unchanged.
func (d *Duchi) UnmarshalLegacyState(data []byte) error {
	var st duchiState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("mean: Duchi state: %w", err)
	}
	return d.applyState(st)
}

// applyState validates a decoded state (shared by the binary and the
// legacy JSON decoder) and installs it.
func (d *Duchi) applyState(st duchiState) error {
	if st.V != 0 {
		return fmt.Errorf("mean: Duchi state: unsupported state version %d", st.V)
	}
	if st.Mechanism != "duchi" || st.Epsilon != d.epsilon {
		return fmt.Errorf("mean: Duchi state parameter mismatch")
	}
	if st.N < 0 || math.IsNaN(st.Sum) || math.IsInf(st.Sum, 0) {
		return fmt.Errorf("mean: Duchi state has malformed tallies")
	}
	d.sum, d.n = st.Sum, st.N
	return nil
}

// Epsilon returns the privacy budget the estimator was built with.
func (h *Harmony) Epsilon() float64 { return h.epsilon }

// Dim returns the vector dimension.
func (h *Harmony) Dim() int { return h.dim }

// C returns the output magnitude (e^ε+1)/(e^ε−1); reports are ±C·Dim.
func (h *Harmony) C() float64 { return h.c }

// Reset clears the aggregate.
func (h *Harmony) Reset() {
	for i := range h.sums {
		h.sums[i] = 0
	}
	h.n = 0
}

// Merge folds other's aggregate into h; epsilon and dimension must
// match exactly (reports are scaled by both).
func (h *Harmony) Merge(other *Harmony) error {
	if other.epsilon != h.epsilon || other.dim != h.dim {
		return fmt.Errorf("mean: Harmony merge parameter mismatch")
	}
	for i, s := range other.sums {
		h.sums[i] += s
	}
	h.n += other.n
	return nil
}

// Snapshot returns an independent copy of the aggregate state.
func (h *Harmony) Snapshot() *Harmony {
	cp := *h
	cp.sums = make([]float64, len(h.sums))
	copy(cp.sums, h.sums)
	return &cp
}

// harmonyState is the serialized aggregate of a Harmony estimator.
type harmonyState struct {
	V         int       `json:"v,omitempty"` // 0 = current format; others refused
	Mechanism string    `json:"mechanism"`
	Epsilon   float64   `json:"epsilon"`
	Dim       int       `json:"dim"`
	Sums      []float64 `json:"sums"`
	N         int       `json:"n"`
}

// UnmarshalLegacyState restores a JSON state written by a build that
// predates the binary layout; errors leave h unchanged.
func (h *Harmony) UnmarshalLegacyState(data []byte) error {
	var st harmonyState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("mean: Harmony state: %w", err)
	}
	return h.applyState(st)
}

// applyState validates a decoded state (shared by the binary and the
// legacy JSON decoder) and installs it.
func (h *Harmony) applyState(st harmonyState) error {
	if st.V != 0 {
		return fmt.Errorf("mean: Harmony state: unsupported state version %d", st.V)
	}
	if st.Mechanism != "harmony" || st.Epsilon != h.epsilon || st.Dim != h.dim {
		return fmt.Errorf("mean: Harmony state parameter mismatch")
	}
	if st.N < 0 || len(st.Sums) != h.dim {
		return fmt.Errorf("mean: Harmony state has malformed tallies")
	}
	for _, s := range st.Sums {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("mean: Harmony state has malformed tallies")
		}
	}
	copy(h.sums, st.Sums)
	h.n = st.N
	return nil
}
