package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {10, 1}, {0.1, 1},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
	// A percentile is always a value somebody observed.
	if got := percentile([]float64{1, 100}, 50); got != 1 {
		t.Errorf("percentile({1,100}, 50) = %v, want the observed 1, not an interpolated value", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestMillisSorts(t *testing.T) {
	got := millis([]time.Duration{3 * time.Millisecond, time.Millisecond, 2500 * time.Microsecond})
	want := []float64{1, 2.5, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("millis = %v, want %v", got, want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), the
// spread definition the benchmark contract uses.
func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, (8.25 - 2.75) / 5.5},
		{[]float64{100, 101, 103, 99, 102}, (102.5 - 99.5) / 101},
		{[]float64{4, 8}, (9.0 - 3.0) / 6}, // two points extrapolate, as Python does
		{[]float64{7}, 0},
	} {
		if got := iqrShare(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("iqrShare(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestWindowRates(t *testing.T) {
	at := []time.Duration{0, 400 * time.Millisecond, 600 * time.Millisecond, 1900 * time.Millisecond, 2100 * time.Millisecond}
	weight := []int{10, 10, 30, 5, 1000}
	// Windows of 1 s over a 2.5 s wall: two full windows; the tail
	// half-window (and the event in it) is left out.
	got := windowRates(at, weight, 2500*time.Millisecond, time.Second)
	if len(got) != 2 || got[0] != 50 || got[1] != 5 {
		t.Fatalf("windowRates = %v, want [50 5]", got)
	}
	if got := windowRates(at, weight, 300*time.Millisecond, time.Second); got != nil {
		t.Fatalf("a wall shorter than one window gave %v, want nil", got)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name       string
		base, cand []float64
		higher     bool
		bound      float64
		want       string
	}{
		{"unchanged", steady, steady, false, 0.1, verdictPass},
		{"latency up 20%", steady, []float64{120, 121, 119, 120, 122}, false, 0.1, verdictWorse},
		{"latency down 20%", steady, []float64{80, 81, 79, 80, 82}, false, 0.1, verdictPass},
		{"throughput down 20%", steady, []float64{80, 81, 79, 80, 82}, true, 0.1, verdictWorse},
		{"throughput up", steady, []float64{120, 121, 119}, true, 0.1, verdictPass},
		{"noisy, overlapping", []float64{60, 100, 140, 90, 120}, []float64{70, 105, 130, 95, 110}, false, 0.1, verdictUnresolved},
		{"noisy, but every run better", []float64{60, 100, 140, 90, 120}, []float64{50, 40, 55, 45, 30}, false, 0.1, verdictPass},
		{"no candidate runs", steady, nil, false, 0.1, verdictUnresolved},
	} {
		if got, _ := judge(c.base, c.cand, c.higher, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
