// Command ldpbench regenerates the experiment suite E1–E13 (see
// DESIGN.md and EXPERIMENTS.md): every table and series the tutorial's
// surveyed systems report.
//
// Usage:
//
//	ldpbench                 # run the full suite
//	ldpbench -run E2,E5      # run selected experiments
//	ldpbench -users 100000 -trials 10 -seed 7
//	ldpbench -list           # list experiment ids
//	ldpbench -json BENCH.json  # also write machine-readable results
//
// With -json PATH the run additionally writes a machine-readable
// summary (configuration plus experiment id → wall-clock seconds), the
// format of the repository's BENCH_*.json perf-trajectory files: each
// PR that touches a hot path commits a small-config run so regressions
// show up as a series, not an anecdote.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

// benchResult is one experiment's entry in the -json summary.
type benchResult struct {
	ID      string  `json:"id"`
	Title   string  `json:"title"`
	Seconds float64 `json:"seconds"`
}

// benchSummary is the -json file layout.
type benchSummary struct {
	Users   int           `json:"users"`
	Trials  int           `json:"trials"`
	Seed    uint64        `json:"seed"`
	Results []benchResult `json:"results"`
}

func main() {
	var (
		runIDs   = flag.String("run", "", "comma-separated experiment ids (default: all)")
		users    = flag.Int("users", experiments.DefaultConfig().Users, "population size per run")
		trials   = flag.Int("trials", experiments.DefaultConfig().Trials, "trials averaged per cell")
		seed     = flag.Uint64("seed", experiments.DefaultConfig().Seed, "deterministic seed")
		list     = flag.Bool("list", false, "list experiments and exit")
		jsonPath = flag.String("json", "", "write machine-readable results (id → seconds) to this path")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s (reproduces %s)\n", e.ID, e.Title, e.Source)
		}
		return
	}

	cfg := experiments.Config{Users: *users, Trials: *trials, Seed: *seed}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var selected []experiments.Experiment
	if *runIDs == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	summary := benchSummary{Users: *users, Trials: *trials, Seed: *seed}
	for i, e := range selected {
		if i > 0 {
			fmt.Println()
		}
		start := time.Now()
		if err := experiments.Run(os.Stdout, e, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		summary.Results = append(summary.Results, benchResult{
			ID: e.ID, Title: e.Title, Seconds: time.Since(start).Seconds(),
		})
	}

	if *jsonPath != "" {
		blob, err := json.MarshalIndent(summary, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "ldpbench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ldpbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ldpbench: wrote %s\n", *jsonPath)
	}
}
