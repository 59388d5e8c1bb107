// Command ldpload is the repository's benchmark: a load harness that
// drives real ldpd processes over real sockets with the durable path on
// (-state-dir on a real filesystem, -journal-sync always), prints every
// metric by name with its unit, verifies what the servers serve against
// a sequential reference fold, and exits non-zero when anything fails.
//
//	go run ./bench/ldpload                            # all four workloads, end to end
//	go run ./bench/ldpload -workload olh_large_batch -seed 7 -json bench/out/a.json
//	go run ./bench/ldpload -trace 1 -out bench/out/spans.json   # per-layer, in-process
//	go run ./bench/ldpload -compare bench/out/a.json bench/out/b.json
//
// BENCHMARK.json at the repository root declares the workloads, the
// gated end-to-end metrics with their bounds, and the per-layer metrics
// of the traced run; bench/README.md explains each choice. The harness
// measures layers from outside, through their public functions, and
// changes nothing outside bench/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with its inputs and outputs as parameters, so the
// smoke test drives exactly the code path the command line does.
func realMain(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("ldpload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "all", "workload to run, or \"all\"")
		seed         = fs.Uint64("seed", 1, "seed the corpus is privatized from; the same seed gives the same inputs")
		seconds      = fs.Float64("seconds", 20, "measured seconds per workload: half closed loop, half open loop")
		trace        = fs.Int("trace", 0, "1 = in-process traced run reporting the per-layer metrics instead of the end-to-end ones")
		smoke        = fs.Bool("smoke", false, "1 s phases, tiny journal tail, single set-up; output is flagged non-comparable")
		jsonPath     = fs.String("json", "", "append this run, with its environment stamp, to a JSON results file")
		outPath      = fs.String("out", "", "traced run: write the recorded spans to this file")
		dir          = fs.String("dir", "", "parent of the servers' state dirs (default bench/.build/state in the checkout)")
		allowTmpfs   = fs.Bool("allow-tmpfs", false, "run even when the state dir is on tmpfs, where fsync is a no-op")
		compare      = fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ldpload:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two results files"))
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return fail(errors.New("-seconds must be at least 1 and -trace 0 or 1"))
	}
	var selected []*workload
	if *workloadName == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w, ok := findWorkload(*workloadName); ok {
		selected = []*workload{w}
	} else {
		return fail(fmt.Errorf("unknown workload %q", *workloadName))
	}

	opts := runOpts{seed: *seed, seconds: *seconds, smoke: *smoke, nproc: runtime.NumCPU()}
	if *smoke {
		opts.seconds = 2
	}
	h, buildTime, err := newHarness(*dir, *allowTmpfs)
	if err != nil {
		return fail(err)
	}
	// Children and state dirs go on every exit path: return, panic
	// (re-raised after the cleanup) and SIGINT/SIGTERM.
	defer h.cleanup()
	sigs := make(chan os.Signal, 1)
	finished := make(chan struct{})
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sigs)
		close(finished)
	}()
	go func() {
		select {
		case <-sigs:
			h.cleanup()
			os.Exit(130)
		case <-finished:
		}
	}()

	env, err := stampEnv(h, opts)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "ldpload: commit %s, %s, nproc %d, GOMAXPROCS %d, kernel %s, state dir on %s; built ldpd in %.2fs\n",
		env.Commit, env.GoVersion, env.NumCPU, env.GOMAXPROCS, env.Kernel, env.FSType, buildTime.Seconds())

	var spans []span
	for _, w := range selected {
		var res *result
		if *trace == 1 {
			var sp []span
			res, sp, err = traceWorkload(h, w, opts)
			spans = append(spans, sp...)
		} else {
			res, err = runWorkload(h, w, opts)
		}
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		printResult(stdout, res, opts)
		if *jsonPath != "" {
			if err := appendRun(*jsonPath, env, res, opts); err != nil {
				return fail(err)
			}
		}
		if !res.Correct {
			code = 1
		}
	}
	if *outPath != "" {
		if err := writeSpans(*outPath, spans); err != nil {
			return fail(err)
		}
	}
	return code
}

// summary is the one-object last line of a run's standard output, the
// form the benchmark contract reads.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult prints one workload's metrics by name with unit and
// sample count, its notes, and — as the last line — the one-object
// summary the benchmark contract reads.
func printResult(out io.Writer, r *result, o runOpts) {
	mode := "end-to-end (real processes, real sockets, journal fsync on)"
	if r.Trace {
		mode = "per-layer (in-process, one batch at a time, spans on)"
	}
	fmt.Fprintf(out, "\n== %s: %s, seed %d", r.Workload, mode, o.seed)
	if !r.Trace {
		fmt.Fprintf(out, ", warm-up %gs + closed loop %gs + open loop %gs at %g batches/s",
			r.Phases["warmup"], r.Phases["closed"], r.Phases["open"], r.OpenRate)
	}
	if o.smoke {
		fmt.Fprint(out, " [SMOKE: not comparable]")
	}
	fmt.Fprintln(out)
	table := func(title string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for name := range ms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := ms[name]
			n := ""
			if m.N > 0 {
				n = fmt.Sprintf("n=%d", m.N)
			}
			fmt.Fprintf(out, "%-7s %-44s %16.6g %-10s %s\n", title, name, m.Value, m.Unit, n)
		}
	}
	table("metric", r.Metrics)
	table("info", r.Info)
	for _, n := range r.Notes {
		fmt.Fprintln(out, "note   ", n)
	}
	sum := summary{r.Correct, r.Attempted, r.Failed, make(map[string]metric, len(r.Metrics))}
	for name, m := range r.Metrics {
		sum.Metrics[name] = metric{Value: m.Value, Unit: m.Unit} // the contract's metric object has exactly value and unit
	}
	line, err := json.Marshal(sum)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Fprintf(out, "%s\n", line)
}
