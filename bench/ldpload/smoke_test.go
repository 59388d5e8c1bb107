package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
)

// TestSmoke runs every workload end to end and traced, in -smoke
// sizing, through the same entry point as the command line: real ldpd
// processes, real sockets, kill and restart, verification. It requires
// every run to verify and the reported metric and workload names to be
// exactly the ones BENCHMARK.json declares — a renamed metric would
// otherwise silently stop being gated. Timings are not asserted.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real ldpd processes; skipped under -short")
	}
	spec, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	names := func(ms []specMetric) []string {
		out := make([]string, len(ms))
		for i, m := range ms {
			out[i] = m.Name
		}
		sort.Strings(out)
		return out
	}
	var declared, have []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(declared, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json declares workloads %v, the harness has %v", declared, have)
	}
	units := map[string]string{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		units[m.Name] = m.Unit
	}

	dir := t.TempDir()
	for _, w := range workloads {
		for _, mode := range []struct {
			trace string
			want  []string
		}{{"0", names(spec.EndToEnd)}, {"1", names(spec.PerLayer)}} {
			t.Run(w.name+"/trace="+mode.trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				// -allow-tmpfs: the test's temp dir may be tmpfs, and a
				// smoke run asserts no timing.
				code := realMain([]string{"-smoke", "-allow-tmpfs", "-dir", dir, "-workload", w.name, "-trace", mode.trace}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var sum summary
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
					t.Fatalf("last line is not the summary object: %v\n%s", err, lines[len(lines)-1])
				}
				if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
					t.Fatalf("verification did not pass: %+v\n%s", sum, &stdout)
				}
				var got []string
				for name, m := range sum.Metrics {
					got = append(got, name)
					if m.Unit != units[name] {
						t.Errorf("%s reported in %q, BENCHMARK.json says %q", name, m.Unit, units[name])
					}
				}
				sort.Strings(got)
				if strings.Join(got, ",") != strings.Join(mode.want, ",") {
					t.Errorf("reported metrics\n %v\ndeclared in BENCHMARK.json\n %v", got, mode.want)
				}
				if !strings.Contains(stdout.String(), "SMOKE: not comparable") {
					t.Error("smoke output is not flagged non-comparable")
				}
			})
		}
	}
}
