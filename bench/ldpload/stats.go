package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending sample: the smallest value with at least p% of the
// sample at or below it. Nearest rank never invents a latency nobody
// observed, which interpolation does in a sparse tail. An empty sample
// yields 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// median is the 50th percentile of an unsorted sample (which it leaves
// untouched).
func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 50)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// millis converts a duration sample to ascending milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// iqrShare is the run-to-run spread the benchmark contract gates on:
// the distance between the first and third quartile as a share of the
// median, by the exclusive method of Python's statistics.quantiles
// (n=4). It needs at least two values; fewer yield 0.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	q := func(k int) float64 {
		// Exclusive method: position k(n+1)/4 on a 1-based index,
		// clamped to the sample, linearly interpolated.
		pos := float64(k) * float64(len(s)+1) / 4
		lo := min(max(int(pos), 1), len(s)-1)
		frac := pos - float64(lo)
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// windowRates splits [0, wall) into windows of the given width and
// returns each full window's event weight per second. Reporting the
// median window instead of total/wall keeps one checkpoint stall or one
// burst of a noisy neighbour from moving the figure.
func windowRates(at []time.Duration, weight []int, wall, width time.Duration) []float64 {
	n := int(wall / width)
	if n == 0 {
		return nil
	}
	sums := make([]float64, n)
	for i, t := range at {
		if w := int(t / width); w >= 0 && w < n {
			sums[w] += float64(weight[i])
		}
	}
	for i := range sums {
		sums[i] /= width.Seconds()
	}
	return sums
}

// windowPercentiles cuts a slot-ordered latency sample into consecutive
// windows of perWindow slots and returns each full window's p-th
// percentile in milliseconds. The median of these is the metric: one
// stalled second (a slow fsync, a noisy neighbour) moves one window,
// not the figure, while a change that slows every second moves it all.
func windowPercentiles(latency []time.Duration, perWindow int, p float64) []float64 {
	var out []float64
	for start := 0; start+perWindow <= len(latency); start += perWindow {
		out = append(out, percentile(millis(latency[start:start+perWindow]), p))
	}
	if len(out) == 0 {
		out = append(out, percentile(millis(latency), p))
	}
	return out
}
