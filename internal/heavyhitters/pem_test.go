package heavyhitters_test

// The PEM protocol runs in one place, the hh task ldpd serves
// (internal/task/hhtask), over this package's PEMParams and LHMech.
// These tests drive it end to end as the served protocol.

import (
	"encoding/json"
	"math"
	"net/url"
	"testing"

	"repro/internal/heavyhitters"
	"repro/internal/ldprand"
	"repro/internal/task"
	"repro/internal/task/hhtask"
	"repro/internal/workload"
)

// zipfValues draws n values over a 2^bits domain where the first few
// items carry most of the mass.
func zipfValues(seed uint64, bits, n int) []uint64 {
	src := ldprand.NewSplitMix64(seed)
	// Heavy items are spread across the prefix space (not clustered at
	// 0) to make prefix discovery non-trivial.
	domain := 1 << uint(bits)
	heavy := []uint64{
		uint64(domain * 3 / 7), uint64(domain * 5 / 9), uint64(domain / 13),
		uint64(domain * 7 / 11), uint64(domain * 2 / 5),
	}
	zipf := workload.NewZipf(src, 1.7, len(heavy)+1)
	out := make([]uint64, n)
	for i := range out {
		k := zipf.Next()
		if k < len(heavy) {
			out[i] = heavy[k]
		} else {
			out[i] = uint64(ldprand.Intn(src, domain))
		}
	}
	return out
}

// servedPEM runs the protocol over values as the hh task serves it:
// the users split into p.Levels contiguous groups, group r reports in
// round r, and the final hits are read once every round has advanced.
func servedPEM(t *testing.T, p heavyhitters.PEMParams, values []uint64, seed uint64) []hhtask.Prefix {
	t.Helper()
	a, err := task.New(task.Config{Task: task.TypeHH, Mechanism: hhtask.MechanismPEM,
		Epsilon: p.Epsilon, Bits: p.Bits, Levels: p.Levels, K: p.K})
	if err != nil {
		t.Fatal(err)
	}
	client, err := hhtask.NewClient(p.Epsilon, p.Bits, p.Levels, ldprand.NewSplitMix64(seed))
	if err != nil {
		t.Fatal(err)
	}
	n := len(values)
	for round := 0; round < p.Levels; round++ {
		for _, v := range values[round*n/p.Levels : (round+1)*n/p.Levels] {
			raw, err := client.Report(v, round)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Add(raw); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.(task.Phased).Advance(); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := a.Estimate(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	var res hhtask.EstimateResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	return res.Hits
}

func TestPEMFindsTopHitters(t *testing.T) {
	const bits, n = 12, 60000
	values := zipfValues(1, bits, n)
	truth := make(map[uint64]int)
	for _, v := range values {
		truth[v]++
	}
	hits := servedPEM(t, heavyhitters.PEMParams{Epsilon: 3, Bits: bits, Levels: 3, K: 5}, values, 2)
	if len(hits) == 0 {
		t.Fatal("no heavy hitters found")
	}
	// The most frequent item must be discovered.
	var best uint64
	bestCount := 0
	for v, c := range truth {
		if c > bestCount {
			best, bestCount = v, c
		}
	}
	found := false
	for _, h := range hits {
		if h.Value == best {
			found = true
			// Count should be in the right ballpark.
			if math.Abs(h.Count-float64(bestCount)) > 0.5*float64(bestCount) {
				t.Errorf("top item count %.0f truth %d", h.Count, bestCount)
			}
		}
	}
	if !found {
		t.Errorf("top item %d (count %d) not among hits %v", best, bestCount, hits)
	}
}

func TestPEMSortedDescending(t *testing.T) {
	values := zipfValues(3, 10, 20000)
	hits := servedPEM(t, heavyhitters.PEMParams{Epsilon: 3, Bits: 10, Levels: 2, K: 8}, values, 4)
	for i := 1; i < len(hits); i++ {
		if hits[i].Count > hits[i-1].Count {
			t.Fatalf("hits not sorted: %v", hits)
		}
	}
}

func TestPEMEmptyInput(t *testing.T) {
	if hits := servedPEM(t, heavyhitters.PEMParams{Epsilon: 1, Bits: 8, Levels: 2, K: 3}, nil, 1); len(hits) != 0 {
		t.Fatalf("expected no hits, got %v", hits)
	}
}

func TestPEMRejectsOverflowValues(t *testing.T) {
	client, err := hhtask.NewClient(1, 4, 2, ldprand.NewSplitMix64(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Report(1<<4, 0); err == nil {
		t.Fatal("value beyond Bits accepted")
	}
}

func TestBaselineMatchesPEMOnSmallDomain(t *testing.T) {
	// On a small domain both methods should find the same top item.
	const bits, n = 8, 40000
	values := zipfValues(7, bits, n)
	base, err := heavyhitters.BaselineGRR(3, bits, 3, values, ldprand.NewSplitMix64(8))
	if err != nil {
		t.Fatal(err)
	}
	pem := servedPEM(t, heavyhitters.PEMParams{Epsilon: 3, Bits: bits, Levels: 2, K: 3}, values, 9)
	if len(base) == 0 || len(pem) == 0 {
		t.Fatal("empty results")
	}
	if base[0].Value != pem[0].Value {
		t.Errorf("baseline top %d != PEM top %d", base[0].Value, pem[0].Value)
	}
}

// TestServedMechanismsSpendAtMostEpsilon checks ε-LDP exactly for every
// heavy-hitter mechanism ldpd serves: each user sends one LHMech report
// at the full ε, and its worst likelihood ratio, computed from the
// fields Privatize reads, must not exceed e^ε beyond float rounding. A
// served mechanism with no row here fails.
func TestServedMechanismsSpendAtMostEpsilon(t *testing.T) {
	for _, eps := range []float64{0.01, 0.1, 0.5, 1, 2, 4, 8} {
		for _, name := range hhtask.Mechanisms() {
			if name != hhtask.MechanismPEM {
				t.Fatalf("served mechanism %s has no privacy row", name)
			}
			if ratio := heavyhitters.WorstRatio(heavyhitters.NewLHMech(eps)); ratio > math.Exp(eps)*(1+1e-12) {
				t.Errorf("%s eps=%v: worst ratio %.15g exceeds e^eps = %.15g", name, eps, ratio, math.Exp(eps))
			}
		}
	}
}
