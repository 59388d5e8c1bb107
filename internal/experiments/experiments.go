// Package experiments implements the reproduction suite E1–E13 defined
// in DESIGN.md: each experiment regenerates the canonical result of one
// of the systems the tutorial surveys, printing the same rows/series
// the source paper reports. cmd/ldpbench is the CLI front end; the
// benchmarks in the repository root reuse the same runners.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// Experiment is one reproducible result.
type Experiment struct {
	ID     string
	Title  string
	Source string // the surveyed work whose result shape is reproduced
	Run    func(w io.Writer, cfg Config) error
}

// Config scales the whole suite; the default is laptop-sized.
type Config struct {
	Users  int    // base population per run
	Trials int    // repetitions averaged per cell
	Seed   uint64 // deterministic seed for reproducible tables
}

// DefaultConfig returns the configuration used for EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{Users: 50000, Trials: 5, Seed: 20180610}
}

// Validate checks that the configuration is runnable.
func (c Config) Validate() error {
	if c.Users < 100 {
		return fmt.Errorf("experiments: need at least 100 users, got %d", c.Users)
	}
	if c.Trials < 1 {
		return fmt.Errorf("experiments: need at least 1 trial, got %d", c.Trials)
	}
	return nil
}

// All returns every experiment in suite order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Randomized response: unbiasedness and CI coverage vs ε",
			Source: "Warner 1965; tutorial §1.1", Run: runE1},
		{ID: "E2", Title: "Frequency oracles: empirical vs analytic MSE across ε",
			Source: "Wang et al., USENIX Security 2017", Run: runE2},
		{ID: "E3", Title: "Domain-size crossover: GRR vs OUE/OLH",
			Source: "Wang et al., USENIX Security 2017", Run: runE3},
		{ID: "E4", Title: "RAPPOR: top-k URL recall and MAE vs population",
			Source: "Erlingsson et al., CCS 2014", Run: runE4},
		{ID: "E5", Title: "Apple CMS vs HCMS: accuracy vs width and ε; bits/report",
			Source: "Apple DP team white paper 2017", Run: runE5},
		{ID: "E6", Title: "Heavy hitters: PEM vs SFP vs full-domain baseline",
			Source: "Bassily–Smith 2015; Wang et al. 2017", Run: runE6},
		{ID: "E7", Title: "Microsoft 1-bit mean; memoization under repeated collection",
			Source: "Ding et al., NeurIPS 2017", Run: runE7},
		{ID: "E8", Title: "Spatial grids: range-query error vs granularity; hotspots",
			Source: "Chen et al., ICDE 2016", Run: runE8},
		{ID: "E9", Title: "Marginals: Fourier vs full vs direct across k and d",
			Source: "Cormode et al. 2017", Run: runE9},
		{ID: "E10", Title: "Hybrid model: error vs opt-in fraction",
			Source: "Avent et al., USENIX Security 2017", Run: runE10},
		{ID: "E11", Title: "Central vs local gap: error ratio vs n",
			Source: "Duchi et al., FOCS 2013; tutorial §1.5", Run: runE11},
		{ID: "E12", Title: "Graphs: degree-distribution KS and synthetic fidelity",
			Source: "Qin et al., CCS 2017", Run: runE12},
		{ID: "E13", Title: "Communication and client cost per mechanism",
			Source: "tutorial abstract (\"Internet scale\")", Run: runE13},
		{ID: "E14", Title: "Set-valued data: padding-and-sampling, two-phase top-k",
			Source: "Qin et al., CCS 2016", Run: runE14},
		{ID: "E15", Title: "Private language model: perplexity vs ε and n",
			Source: "McMahan et al. 2017 direction, §1.3", Run: runE15},
		{ID: "E16", Title: "Association learning: joint vs independent vs split+IPF",
			Source: "Fanti et al., PETS 2016", Run: runE16},
		{ID: "E17", Title: "Multi-round protocols: quantile bisection, 2-phase refine",
			Source: "Nguyên et al. 2016, tutorial §1.4", Run: runE17},
		{ID: "E18", Title: "Served heavy hitters: interactive PEM over the task stack",
			Source: "Bassily–Smith 2015; tutorial §1.4 (interactivity)", Run: runE18},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(All()))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}

// Run executes one experiment with a header.
func Run(w io.Writer, e Experiment, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(w, "=== %s: %s\n", e.ID, e.Title)
	fmt.Fprintf(w, "    reproduces: %s\n", e.Source)
	return e.Run(w, cfg)
}

// table returns a tabwriter for aligned experiment rows.
func table(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}
