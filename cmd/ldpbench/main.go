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
//
// It reproduces accuracy results, not performance: the serving path's
// benchmark is `go run ./bench/ldpload`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		runIDs = flag.String("run", "", "comma-separated experiment ids (default: all)")
		users  = flag.Int("users", experiments.DefaultConfig().Users, "population size per run")
		trials = flag.Int("trials", experiments.DefaultConfig().Trials, "trials averaged per cell")
		seed   = flag.Uint64("seed", experiments.DefaultConfig().Seed, "deterministic seed")
		list   = flag.Bool("list", false, "list experiments and exit")
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

	for i, e := range selected {
		if i > 0 {
			fmt.Println()
		}
		if err := experiments.Run(os.Stdout, e, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
	}
}
