// Package stats implements the error metrics the experiment suite
// scores estimators with (§1.1): MSE, total variation, KS distance, and
// top-k precision/recall for heavy hitters.
package stats

import (
	"math"
	"sort"
)

// MSE returns the mean squared error between estimates and truth. The
// slices must have equal length.
func MSE(est, truth []float64) float64 {
	mustMatch(len(est), len(truth))
	if len(est) == 0 {
		return 0
	}
	var ss float64
	for i := range est {
		d := est[i] - truth[i]
		ss += d * d
	}
	return ss / float64(len(est))
}

// MAE returns the mean absolute error between estimates and truth.
func MAE(est, truth []float64) float64 {
	mustMatch(len(est), len(truth))
	if len(est) == 0 {
		return 0
	}
	var sum float64
	for i := range est {
		sum += math.Abs(est[i] - truth[i])
	}
	return sum / float64(len(est))
}

// TotalVariation returns the total variation distance between two
// distributions: half the L1 distance. Inputs are normalized first, so
// raw counts are accepted; all-zero inputs are treated as uniform.
func TotalVariation(p, q []float64) float64 {
	mustMatch(len(p), len(q))
	pn, qn := normalize(p), normalize(q)
	var sum float64
	for i := range pn {
		sum += math.Abs(pn[i] - qn[i])
	}
	return sum / 2
}

// KSDistance returns the Kolmogorov–Smirnov distance between the
// empirical CDFs of two distributions over the same ordered support.
func KSDistance(p, q []float64) float64 {
	mustMatch(len(p), len(q))
	pn, qn := normalize(p), normalize(q)
	var cp, cq, worst float64
	for i := range pn {
		cp += pn[i]
		cq += qn[i]
		if d := math.Abs(cp - cq); d > worst {
			worst = d
		}
	}
	return worst
}

func normalize(p []float64) []float64 {
	var sum float64
	for _, v := range p {
		if v > 0 {
			sum += v
		}
	}
	out := make([]float64, len(p))
	if sum == 0 {
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i, v := range p {
		if v > 0 {
			out[i] = v / sum
		}
	}
	return out
}

// TopK returns the indices of the k largest values, ties broken by lower
// index, in decreasing value order. k is clamped to len(xs).
func TopK(xs []float64, k int) []int {
	if k > len(xs) {
		k = len(xs)
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] > xs[idx[b]] })
	return idx[:k]
}

// PrecisionRecall compares a predicted set against a truth set and
// returns (precision, recall, F1). Empty sets yield zeros.
func PrecisionRecall(predicted, truth []int) (precision, recall, f1 float64) {
	if len(predicted) == 0 || len(truth) == 0 {
		return 0, 0, 0
	}
	truthSet := make(map[int]bool, len(truth))
	for _, t := range truth {
		truthSet[t] = true
	}
	hits := 0
	for _, p := range predicted {
		if truthSet[p] {
			hits++
		}
	}
	precision = float64(hits) / float64(len(predicted))
	recall = float64(hits) / float64(len(truth))
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return precision, recall, f1
}

// NCR returns the normalized cumulative rank of a predicted top-k list
// against the true top-k: each true item at rank r (from 1) has weight
// k−r+1 and the score is the recovered weight fraction. It is the top-k
// quality measure used by Wang et al. [21].
func NCR(predicted, truth []int) float64 {
	k := len(truth)
	if k == 0 {
		return 0
	}
	weight := make(map[int]int, k)
	total := 0
	for r, item := range truth {
		w := k - r
		weight[item] = w
		total += w
	}
	got := 0
	for _, p := range predicted {
		got += weight[p]
	}
	return float64(got) / float64(total)
}

func mustMatch(a, b int) {
	if a != b {
		panic("stats: slice length mismatch")
	}
}
