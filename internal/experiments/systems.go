package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/ldprand"
	"repro/internal/rappor"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// runE4 reproduces the RAPPOR simulation shape: top-k recall and
// frequency MAE improve with population size, on Zipf URL popularity.
func runE4(w io.Writer, cfg Config) error {
	tw := table(w)
	fmt.Fprintln(tw, "n\tcandidates\ttop10_recall\ttop10_ncr\tmae_top10/n")
	params := rappor.DefaultParams()
	params.BloomBits = 64
	params.Cohorts = 4
	const numURLs = 50
	urls := workload.URLs(numURLs)
	for _, n := range []int{cfg.Users / 5, cfg.Users, cfg.Users * 2} {
		var recall, ncr, mae float64
		for trial := 0; trial < cfg.Trials; trial++ {
			src := ldprand.NewSplitMix64(cfg.Seed + uint64(n+trial))
			zipf := workload.NewZipf(src, 1.3, numURLs)
			truth := make([]float64, numURLs)
			server, err := rappor.NewServer(params)
			if err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				client, err := rappor.NewClient(params, userSecret(src), src)
				if err != nil {
					return err
				}
				v := zipf.Next()
				truth[v]++
				if err := server.Add(client.Report(urls[v])); err != nil {
					return err
				}
			}
			est := server.Decode(urls)
			estVec := make([]float64, numURLs)
			for i, u := range urls {
				estVec[i] = est[u]
			}
			trueTop := stats.TopK(truth, 10)
			gotTop := stats.TopK(estVec, 10)
			_, r, _ := stats.PrecisionRecall(gotTop, trueTop)
			recall += r
			ncr += stats.NCR(gotTop, trueTop)
			// MAE over the true top 10 items, normalized by n.
			var m float64
			for _, v := range trueTop {
				m += math.Abs(estVec[v] - truth[v])
			}
			mae += m / 10 / float64(n)
		}
		k := float64(cfg.Trials)
		fmt.Fprintf(tw, "%d\t%d\t%.2f\t%.2f\t%.4f\n", n, numURLs, recall/k, ncr/k, mae/k)
	}
	return tw.Flush()
}

func userSecret(src ldprand.Source) []byte {
	buf := make([]byte, 16)
	for i := 0; i < 16; i += 8 {
		v := src.Uint64()
		for b := 0; b < 8; b++ {
			buf[i+b] = byte(v >> (8 * uint(b)))
		}
	}
	return buf
}

// runE7 reproduces Ding et al.: 1-bit mean error vs ε and n, and the
// memoization ablation — without memoization an observer averages T
// rounds to recover a user's value; with it the per-user view is
// constant while the population mean stays accurate.
func runE7(w io.Writer, cfg Config) error {
	tw := table(w)
	fmt.Fprintln(tw, "eps\tn\tmean_abs_err\ttheory_sigma")
	const max = 24.0
	for _, eps := range []float64{0.5, 1, 2} {
		for _, n := range []int{cfg.Users / 10, cfg.Users} {
			p := telemetry.MeanParams{Epsilon: eps, Max: max}
			var sumErr float64
			for trial := 0; trial < cfg.Trials; trial++ {
				src := ldprand.NewSplitMix64(cfg.Seed + uint64(n+trial) + uint64(eps*100))
				col, err := telemetry.NewMeanCollector(p)
				if err != nil {
					return err
				}
				values := workload.Counters(src, max, n)
				var truth float64
				for _, x := range values {
					truth += x
					if err := col.Add(telemetry.OneBit(p, x, src)); err != nil {
						return err
					}
				}
				truth /= float64(n)
				sumErr += math.Abs(col.Estimate() - truth)
			}
			fmt.Fprintf(tw, "%.1f\t%d\t%.3f\t%.3f\n",
				eps, n, sumErr/float64(cfg.Trials), math.Sqrt(telemetry.MeanVariance(p, n)))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Memoization ablation over T rounds for one fixed user value.
	fmt.Fprintln(w, "  repeated collection of one user (x=18, Max=24, eps=1):")
	tw = table(w)
	fmt.Fprintln(tw, "rounds\tdistinct_reports_memoized\tattack_estimate_naive\tattack_estimate_memoized")
	p := telemetry.MeanParams{Epsilon: 1, Max: 24}
	const x = 18.0
	src := ldprand.NewSplitMix64(cfg.Seed)
	client, err := telemetry.NewClient(p, userSecret(src), "app-usage")
	if err != nil {
		return err
	}
	for _, rounds := range []int{10, 100, 1000} {
		naiveSum, memoSum := 0, 0
		distinct := make(map[int]bool)
		for r := 0; r < rounds; r++ {
			naiveSum += client.NaiveReport(x, src)
			b := client.Report(x)
			memoSum += b
			distinct[b] = true
		}
		e := math.Exp(p.Epsilon)
		invert := func(sum int) float64 {
			rate := float64(sum) / float64(rounds)
			return (rate*(e+1) - 1) / (e - 1) * p.Max
		}
		fmt.Fprintf(tw, "%d\t%d\t%.1f\t%.1f\n",
			rounds, len(distinct), invert(naiveSum), invert(memoSum))
	}
	fmt.Fprintln(tw, "(naive attack converges to the true 18.0; memoized stays at a single point)")
	return tw.Flush()
}

// runE13 reports the communication cost per mechanism (the E13 time
// numbers come from `go test -bench`, which shares these mechanisms).
func runE13(w io.Writer, cfg Config) error {
	tw := table(w)
	fmt.Fprintln(tw, "mechanism\tdomain\tbits_per_report\tnotes")
	const d = 1024
	for _, m := range freqMechanismRows(d) {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\n", m.name, d, m.bits, m.note)
	}
	fmt.Fprintln(tw, "(ns/report per mechanism: go test -bench=BenchmarkE13 -benchmem)")
	return tw.Flush()
}
