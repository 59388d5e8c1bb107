package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// schemaVersion tags the results file; a reader refuses other versions
// rather than guessing at renamed fields.
const schemaVersion = 1

// envStamp records where and on what a run was measured: two results
// are comparable only when these agree.
type envStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	FSType     string `json:"fs_type"` // filesystem of the servers' state dirs
}

func stampEnv(h *harness, o runOpts) (envStamp, error) {
	fst, err := fsType(h.base)
	if err != nil {
		return envStamp{}, err
	}
	env := envStamp{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     o.nproc,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
		FSType:     fst,
	}
	// Neither is essential: a checkout exported without .git, or a
	// system without /proc, still benchmarks.
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = h.root
	if out, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(rel))
	}
	return env, nil
}

// runRecord is one workload run in a results file.
type runRecord struct {
	Env        envStamp           `json:"env"`
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      bool               `json:"trace"`
	Comparable bool               `json:"comparable"` // false for -smoke runs and invalid open loops
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	PhasesS    map[string]float64 `json:"phases_s,omitempty"`
	OpenRate   float64            `json:"open_rate_per_s,omitempty"`
	Metrics    map[string]metric  `json:"metrics"` // value, unit, and n: the sample count behind it
	Info       map[string]metric  `json:"info,omitempty"`
	Notes      []string           `json:"notes,omitempty"`
}

// resultsFile is the -json output: runs accumulate across invocations,
// so "a set of runs" is one file.
type resultsFile struct {
	Schema int         `json:"schema"`
	Runs   []runRecord `json:"runs"`
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schemaVersion {
		return f, fmt.Errorf("%s: results schema %d, this build reads %d", path, f.Schema, schemaVersion)
	}
	return f, nil
}

// appendRun adds the run to the results file, creating it if needed.
func appendRun(path string, env envStamp, r *result, o runOpts) error {
	f, err := readResults(path)
	if errors.Is(err, os.ErrNotExist) {
		f, err = resultsFile{Schema: schemaVersion}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, runRecord{
		Env: env, Workload: r.Workload, Seed: o.seed, Trace: r.Trace,
		Comparable: !o.smoke && r.Valid, Correct: r.Correct,
		Attempted: r.Attempted, Failed: r.Failed,
		PhasesS: r.Phases, OpenRate: r.OpenRate,
		Metrics: r.Metrics, Info: r.Info, Notes: r.Notes,
	})
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchmarkSpec is the part of BENCHMARK.json the harness reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec() (benchmarkSpec, error) {
	var spec benchmarkSpec
	root, err := findRoot()
	if err != nil {
		return spec, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	return spec, json.Unmarshal(data, &spec)
}

// Verdicts of one workload × metric comparison.
const (
	verdictPass       = "PASS"
	verdictWorse      = "WORSE"
	verdictUnresolved = "UNRESOLVED"
)

// judge compares the candidate's runs with the base's for one metric.
// It is WORSE when the candidate's median is worse than the base's by
// more than the bound. Otherwise, when either side's run-to-run spread
// (interquartile range over median) is wider than the bound, the runs
// cannot tell "unchanged" from "changed": UNRESOLVED — unless every
// candidate run reads better than every base run. A side with no
// comparable run is UNRESOLVED too.
func judge(base, cand []float64, higherIsBetter bool, bound float64) (verdict string, ratio float64) {
	if len(base) == 0 || len(cand) == 0 {
		return verdictUnresolved, 0
	}
	mb, mc := median(base), median(cand)
	if mb == 0 {
		return verdictUnresolved, 0
	}
	ratio = mc / mb
	worseBy := ratio - 1
	if higherIsBetter {
		worseBy = 1 - ratio
	}
	if worseBy > bound {
		return verdictWorse, ratio
	}
	if max(iqrShare(base), iqrShare(cand)) > bound {
		sb, sc := sortedCopy(base), sortedCopy(cand)
		allBetter := sc[len(sc)-1] < sb[0]
		if higherIsBetter {
			allBetter = sc[0] > sb[len(sb)-1]
		}
		if !allBetter {
			return verdictUnresolved, ratio
		}
	}
	return verdictPass, ratio
}

// compareFiles prints, per workload × end-to-end metric, both medians,
// the ratio with its base, the bound from BENCHMARK.json and the
// verdict. It reports whether any pair is WORSE.
func compareFiles(out io.Writer, basePath, candPath string) (worse bool, err error) {
	spec, err := readSpec()
	if err != nil {
		return false, err
	}
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readResults(candPath)
	if err != nil {
		return false, err
	}
	values := func(f resultsFile, workload, name string) []float64 {
		var vs []float64
		for _, r := range f.Runs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace && r.Comparable && r.Correct {
				vs = append(vs, m.Value)
			}
		}
		return vs
	}
	fmt.Fprintf(out, "base %s, candidate %s; ratio = candidate median / base median\n", basePath, candPath)
	fmt.Fprintf(out, "%-18s %-22s %14s %14s %-10s %8s %5s %6s  %s\n",
		"workload", "metric", "base", "candidate", "unit", "ratio", "runs", "bound", "verdict")
	counts := map[string]int{}
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			b, c := values(base, w.Name, m.Name), values(cand, w.Name, m.Name)
			verdict, ratio := judge(b, c, m.Better == "higher", m.Bound)
			counts[verdict]++
			var mb, mc float64
			if len(b) > 0 {
				mb = median(b)
			}
			if len(c) > 0 {
				mc = median(c)
			}
			fmt.Fprintf(out, "%-18s %-22s %14.6g %14.6g %-10s %8.4f %2d/%-2d %5.0f%%  %s\n",
				w.Name, m.Name, mb, mc, m.Unit, ratio, len(b), len(c), m.Bound*100, verdict)
		}
	}
	fmt.Fprintf(out, "%d PASS, %d WORSE, %d UNRESOLVED (smoke, invalid and incorrect runs are left out)\n",
		counts[verdictPass], counts[verdictWorse], counts[verdictUnresolved])
	return counts[verdictWorse] > 0, nil
}
