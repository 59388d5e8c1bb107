package postprocess

import (
	"math"
	"testing"
)

func TestWeightedAverage(t *testing.T) {
	got, err := WeightedAverage(10, 1, 20, 1)
	if err != nil || got != 15 {
		t.Fatalf("equal-variance average %v, %v", got, err)
	}
	// Lower variance dominates.
	got, _ = WeightedAverage(10, 1, 20, 99999)
	if math.Abs(got-10) > 0.1 {
		t.Fatalf("low-variance estimate should dominate: %v", got)
	}
	if _, err := WeightedAverage(1, 0, 2, 1); err == nil {
		t.Fatal("zero variance accepted")
	}
}
