// Mergeability for the mean estimators, the property that lets them
// ride the sharded collection pipeline: both accumulators are a sum
// (or sum vector) and a count, so merging is exact and the state round
// trip (binary.go) reproduces estimates bit for bit — the same
// contract freq.Oracle gives the frequency path.
package mean

import "fmt"

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
