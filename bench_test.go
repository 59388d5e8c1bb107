// Package repro's root benchmark harness: one benchmark per experiment
// in the E1–E13 suite (regenerating the table under the Go benchmark
// driver), plus per-mechanism client/server microbenchmarks that back
// the E13 cost table. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"repro/internal/cms"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/freq"
	"repro/internal/ldprand"
	"repro/internal/rappor"
	"repro/internal/task"
	"repro/internal/task/freqtask"
	"repro/internal/task/hhtask"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// benchConfig keeps experiment benchmarks to a few seconds each.
func benchConfig() experiments.Config {
	return experiments.Config{Users: 2000, Trials: 1, Seed: 1}
}

// BenchmarkExperiments regenerates each experiment's table once per
// iteration, giving an end-to-end cost per experiment id.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All() {
		e := e
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := experiments.Run(io.Discard, e, benchConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE13Privatize measures the client-side cost of one report
// for every frequency oracle (the E13 ns/report column).
func BenchmarkE13Privatize(b *testing.B) {
	const d = 1024
	for _, m := range freq.Mechanisms() {
		m := m
		b.Run(fmt.Sprintf("%s/d=%d", m.Name, d), func(b *testing.B) {
			o := m.Build(freq.Config{Epsilon: 1, Domain: d, Source: ldprand.NewSplitMix64(1)})
			env, err := freqtask.Privatize(o, 7)
			if err != nil {
				b.Fatal(err)
			}
			_ = env
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := freqtask.Privatize(o, i%d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE13Collect measures the combined client+server cost per
// report (Collect = Privatize + Aggregate), the aggregation-side cost
// axis: LH pays O(d) at the server, UE pays O(d) at the client.
func BenchmarkE13Collect(b *testing.B) {
	const d = 1024
	for _, m := range freq.Mechanisms() {
		m := m
		b.Run(fmt.Sprintf("%s/d=%d", m.Name, d), func(b *testing.B) {
			o := m.Build(freq.Config{Epsilon: 1, Domain: d, Source: ldprand.NewSplitMix64(1)})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Collect(i % d)
			}
		})
	}
}

// BenchmarkE13Estimate measures the analyst-side decode cost.
func BenchmarkE13Estimate(b *testing.B) {
	const d, n = 1024, 2000
	for _, m := range freq.Mechanisms() {
		m := m
		b.Run(m.Name, func(b *testing.B) {
			o := m.Build(freq.Config{Epsilon: 1, Domain: d, Source: ldprand.NewSplitMix64(1)})
			for i := 0; i < n; i++ {
				o.Collect(i % d)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = o.EstimateCounts()
			}
		})
	}
}

// BenchmarkRAPPORReport measures one full RAPPOR client report
// (Bloom encode + permanent + instantaneous RR).
func BenchmarkRAPPORReport(b *testing.B) {
	params := rappor.DefaultParams()
	client, err := rappor.NewClient(params, []byte("bench-secret"), ldprand.NewSplitMix64(1))
	if err != nil {
		b.Fatal(err)
	}
	urls := workload.URLs(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = client.Report(urls[i%len(urls)])
	}
}

// BenchmarkRAPPORDecode measures candidate decoding (the ridge solve).
func BenchmarkRAPPORDecode(b *testing.B) {
	params := rappor.DefaultParams()
	params.BloomBits = 64
	params.Cohorts = 4
	server, err := rappor.NewServer(params)
	if err != nil {
		b.Fatal(err)
	}
	src := ldprand.NewSplitMix64(2)
	urls := workload.URLs(50)
	for i := 0; i < 5000; i++ {
		client, err := rappor.NewClient(params, []byte(fmt.Sprintf("u%d", i)), src)
		if err != nil {
			b.Fatal(err)
		}
		if err := server.Add(client.Report(urls[i%len(urls)])); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = server.Decode(urls)
	}
}

// BenchmarkCMSReport measures Apple-style client reports: the m-bit
// CMS report vs the 1-bit HCMS report.
func BenchmarkCMSReport(b *testing.B) {
	params := cms.Params{Epsilon: 2, Width: 1024, Hashes: 64, Seed: 1}
	item := []byte("benchmark-word")
	b.Run("CMS", func(b *testing.B) {
		client, err := cms.NewClient(params, ldprand.NewSplitMix64(1))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			_ = client.Report(item)
		}
	})
	b.Run("HCMS", func(b *testing.B) {
		client, err := cms.NewHadamardClient(params, ldprand.NewSplitMix64(1))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			_ = client.Report(item)
		}
	})
}

// BenchmarkTelemetryOneBit measures the Microsoft 1-bit report path.
func BenchmarkTelemetryOneBit(b *testing.B) {
	p := telemetry.MeanParams{Epsilon: 1, Max: 24}
	src := ldprand.NewSplitMix64(1)
	for i := 0; i < b.N; i++ {
		_ = telemetry.OneBit(p, float64(i%24), src)
	}
}

// BenchmarkPEM measures end-to-end heavy-hitter discovery through the
// served hh task at a small population: every round's reports
// privatized, folded and advanced (dominated by server-side candidate
// evaluation).
func BenchmarkPEM(b *testing.B) {
	const levels = 3
	src := ldprand.NewSplitMix64(3)
	values := make([]uint64, 5000)
	for i := range values {
		values[i] = uint64(ldprand.Intn(src, 1<<12))
	}
	cfg := task.Config{Task: task.TypeHH, Mechanism: hhtask.MechanismPEM, Epsilon: 2, Bits: 12, Levels: levels, K: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := task.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		client, err := hhtask.NewClient(cfg.Epsilon, cfg.Bits, levels, ldprand.NewSplitMix64(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		for round := 0; round < levels; round++ {
			for _, v := range values[round*len(values)/levels : (round+1)*len(values)/levels] {
				raw, err := client.Report(v, round)
				if err != nil {
					b.Fatal(err)
				}
				if err := a.Add(raw); err != nil {
					b.Fatal(err)
				}
			}
			if err := a.(task.Phased).Advance(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEnvelopeRoundTrip measures the wire-format overhead of the
// HTTP collection path for a 1-bit OLH report: privatize, encode the
// JSON envelope, and fold it through the freq task adapter.
func BenchmarkEnvelopeRoundTrip(b *testing.B) {
	o, err := freqtask.NewOracle(core.MechanismOLH, 1, 128, ldprand.NewSplitMix64(1))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := freqtask.New(task.Config{Task: task.TypeFreq, Mechanism: core.MechanismOLH, Epsilon: 1, Domain: 128})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := freqtask.Privatize(o, i%128)
		if err != nil {
			b.Fatal(err)
		}
		raw, err := json.Marshal(env)
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.Add(raw); err != nil {
			b.Fatal(err)
		}
	}
}
