// Package postprocess implements consistency post-processing for LDP
// estimates. Post-processing never weakens differential privacy, so
// the aggregator is free to repair the artifacts of unbiased
// estimation before publishing. This package holds the
// inverse-variance blend the quadtree in internal/spatial uses to
// reconcile a parent cell with the sum of its children.
package postprocess

import "fmt"

// WeightedAverage combines two unbiased estimates of the same quantity
// with inverse-variance weights; varA and varB must be positive.
func WeightedAverage(a, varA, b, varB float64) (float64, error) {
	if varA <= 0 || varB <= 0 {
		return 0, fmt.Errorf("postprocess: variances must be positive, got %v and %v", varA, varB)
	}
	wa, wb := 1/varA, 1/varB
	return (wa*a + wb*b) / (wa + wb), nil
}
