package experiments

// The protocols ldpd serves, driven the way ldpd serves them: through
// core.ShardedAggregator, fed by the task's own client. E5 (CMS/HCMS),
// E6's PEM rows and E18 run here, so an experiment measures the code a
// deployment runs and there is no second, offline copy of a mechanism
// to keep in step. E18's wall clock is also the perf-trajectory point
// for the phased task plumbing.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/ldprand"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/task/cmstask"
	"repro/internal/task/hhtask"
	"repro/internal/workload"
)

// servedShards is the shard count the experiments run the served
// aggregator with. Any shard absorbs any report, so the tables do not
// depend on it beyond float summation order.
const servedShards = 4

// runE5 reproduces the Apple white-paper trade-off: CMS accuracy vs
// sketch width and ε, and HCMS achieving comparable error with 1-bit
// reports (vs m-bit CMS reports). Reports travel the binary wire into
// the sketch task, and the estimates are ?item= reads of the top 20.
func runE5(w io.Writer, cfg Config) error {
	tw := table(w)
	fmt.Fprintln(tw, "eps\twidth\tsystem\tmae_top20/n\tbits_per_report")
	const (
		numWords = 200
		batch    = 1000
	)
	words := workload.Words(numWords)
	n := cfg.Users
	for _, eps := range []float64{2.0, 4.0} {
		for _, width := range []int{128, 1024} {
			for _, system := range cmstask.Mechanisms() {
				sc := task.Config{Task: task.TypeSketch, Mechanism: system,
					Epsilon: eps, Width: width, Hashes: 64, SketchSeed: cfg.Seed}
				var mae float64
				var bits int
				for trial := 0; trial < cfg.Trials; trial++ {
					src := ldprand.NewSplitMix64(cfg.Seed + uint64(trial) + uint64(width) + uint64(eps*100))
					zipf := workload.NewZipf(src, 1.2, numWords)
					truth := make([]float64, numWords)
					client, err := cmstask.NewClient(sc, src)
					if err != nil {
						return err
					}
					agg, err := core.NewShardedAggregator(sc, servedShards)
					if err != nil {
						return err
					}
					reports := make([][]byte, 0, batch)
					for i := 0; i < n; i++ {
						v := zipf.Next()
						truth[v]++
						raw, err := client.ReportBinary([]byte(words[v]))
						if err != nil {
							return err
						}
						if reports = append(reports, raw); len(reports) == batch || i == n-1 {
							if _, err := agg.AddBatchBinary(reports); err != nil {
								return err
							}
							reports = reports[:0]
						}
					}
					top := stats.TopK(truth, 20)
					query := make([]string, len(top))
					for i, v := range top {
						query[i] = words[v]
					}
					est, err := agg.Estimate(map[string][]string{"item": query})
					if err != nil {
						return err
					}
					var res cmstask.EstimateResult
					if err := json.Unmarshal(est, &res); err != nil {
						return err
					}
					var m float64
					for i, v := range top {
						m += math.Abs(res.Items[i].Count - truth[v])
					}
					mae += m / 20 / float64(n)
					bits = agg.ReportBits()
				}
				fmt.Fprintf(tw, "%.1f\t%d\t%s\t%.4f\t%d\n",
					eps, width, system, mae/float64(cfg.Trials), bits)
			}
		}
	}
	return tw.Flush()
}

// servedPEM runs the multi-round PEM protocol over values through
// core.ShardedAggregator exactly the way ldpd serves it: the users
// split into levels contiguous groups, group r privatizes its prefixes
// against round r's frontier, each round is one batch and one Advance,
// and a final ?top=k read returns the population-scaled heavy hitters.
// The client is created here, after the caller drew the values from
// src, so the privatization draws follow them in the stream.
func servedPEM(values []uint64, epsilon float64, bits, levels, k int, src ldprand.Source) ([]hhtask.Prefix, error) {
	agg, err := core.NewShardedAggregator(task.Config{
		Task: task.TypeHH, Mechanism: hhtask.MechanismPEM,
		Epsilon: epsilon, Bits: bits, Levels: levels, K: k,
	}, servedShards)
	if err != nil {
		return nil, err
	}
	client, err := hhtask.NewClient(epsilon, bits, levels, src)
	if err != nil {
		return nil, err
	}
	n := len(values)
	for round := 0; round < levels; round++ {
		batch := make([][]byte, 0, n/levels+1)
		for _, v := range values[round*n/levels : (round+1)*n/levels] {
			raw, err := client.ReportBinary(v, round)
			if err != nil {
				return nil, err
			}
			batch = append(batch, raw)
		}
		if _, err := agg.AddBatchBinary(batch); err != nil {
			return nil, err
		}
		if err := agg.Advance(); err != nil {
			return nil, err
		}
	}
	est, err := agg.Estimate(map[string][]string{"top": {fmt.Sprint(k)}})
	if err != nil {
		return nil, err
	}
	var res hhtask.EstimateResult
	if err := json.Unmarshal(est, &res); err != nil {
		return nil, err
	}
	return res.Hits, nil
}

// runE18 runs servedPEM on a planted population — k heavy values at
// fixed shares over a uniform background — and reports the recall of
// the planted heavy hitters.
func runE18(w io.Writer, cfg Config) error {
	const (
		epsilon = 2.0
		bits    = 16
		levels  = 4
		k       = 3
	)
	// Planted population shares (percent); the remainder is uniform
	// background over the 2^bits domain.
	shares := []int{30, 20, 12}
	tw := table(w)
	fmt.Fprintln(tw, "users\trounds\trecall@3\t(served PEM, eps=2, bits=16, sharded task stack)")
	for _, scale := range []int{1, 2} {
		n := cfg.Users * scale / 2
		if n < levels {
			n = levels
		}
		var recallSum float64
		for trial := 0; trial < cfg.Trials; trial++ {
			src := ldprand.NewSplitMix64(cfg.Seed + uint64(1000*scale+trial))
			// Plant k heavies with the configured shares; the planted
			// set is the ground truth.
			planted := make([]uint64, k)
			for i := range planted {
				planted[i] = uint64(ldprand.Intn(src, 1<<bits))
			}
			values := make([]uint64, n)
			for i := range values {
				values[i] = uint64(ldprand.Intn(src, 1<<bits))
				r, acc := ldprand.Intn(src, 100), 0
				for j, share := range shares {
					if acc += share; r < acc {
						values[i] = planted[j]
						break
					}
				}
			}
			hits, err := servedPEM(values, epsilon, bits, levels, k, src)
			if err != nil {
				return err
			}
			found := make(map[uint64]bool, len(hits))
			for _, h := range hits {
				found[h.Value] = true
			}
			hit := 0
			for _, p := range planted {
				if found[p] {
					hit++
				}
			}
			recallSum += float64(hit) / float64(k)
		}
		fmt.Fprintf(tw, "%d\t%d\t%.2f\t\n", n, levels, recallSum/float64(cfg.Trials))
	}
	return tw.Flush()
}
