// New-words discovery: the Apple scenario (tutorial §1.2(2)). The
// collector wants the trending words typed by users without a
// dictionary: a count-mean sketch estimates frequencies of known
// words, and the sequence fragment puzzle discovers unknown ones.
package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/heavyhitters"
	"repro/internal/ldprand"
	"repro/internal/task"
	"repro/internal/task/cmstask"
	"repro/internal/workload"
)

func main() {
	const users = 60000
	pool := workload.Words(3000)
	trending := []string{pool[42], pool[1111], pool[2718]}

	sim := ldprand.NewSplitMix64(3)
	words := make([]string, users)
	for i := range words {
		r := ldprand.Float64(sim)
		switch {
		case r < 0.3:
			words[i] = trending[0]
		case r < 0.5:
			words[i] = trending[1]
		case r < 0.65:
			words[i] = trending[2]
		default:
			words[i] = pool[ldprand.Intn(sim, len(pool))]
		}
	}

	// Part 1 — frequency of KNOWN words via the count-mean sketch, as
	// ldpd serves it: binary client reports, a ?item= estimate read.
	cfg := task.Config{Task: task.TypeSketch, Mechanism: cmstask.MechanismCMS,
		Epsilon: 4, Width: 1024, Hashes: 64, SketchSeed: 99}
	client, err := cmstask.NewClient(cfg, nil)
	if err != nil {
		panic(err)
	}
	server, err := core.NewShardedAggregator(cfg, 0)
	if err != nil {
		panic(err)
	}
	reports := make([][]byte, len(words))
	for i, w := range words {
		if reports[i], err = client.ReportBinary([]byte(w)); err != nil {
			panic(err)
		}
	}
	if _, err := server.AddBatchBinary(reports); err != nil {
		panic(err)
	}
	raw, err := server.Estimate(map[string][]string{"item": trending})
	if err != nil {
		panic(err)
	}
	var est cmstask.EstimateResult
	if err := json.Unmarshal(raw, &est); err != nil {
		panic(err)
	}
	fmt.Println("CMS estimates for the three trending words:")
	for _, it := range est.Items {
		fmt.Printf("  %s: %8.0f reports (of %d users)\n", it.Item, it.Count, users)
	}

	// Part 2 — discovering them WITHOUT a dictionary via SFP.
	hits, err := heavyhitters.FindSFP(heavyhitters.SFPParams{
		Epsilon: 4, WordLen: 6, HashBits: 6, K: 5, Seed: 1234,
	}, words, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("\nSFP discovery (no candidate list given):")
	for _, h := range hits {
		marker := ""
		for _, tw := range trending {
			if h.Word == tw {
				marker = "  <- trending"
			}
		}
		fmt.Printf("  %s: %8.0f%s\n", h.Word, h.Count, marker)
	}
}
