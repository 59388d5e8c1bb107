package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/freq"
	"repro/internal/graph"
	"repro/internal/heavyhitters"
	"repro/internal/hybrid"
	"repro/internal/ldprand"
	"repro/internal/marginal"
	"repro/internal/spatial"
	"repro/internal/stats"
	"repro/internal/workload"
)

// runE6 reproduces the heavy-hitter comparison: PEM (the served
// protocol, through servedPEM) and SFP find the frequent items of a
// huge implicit domain; the full-domain baseline is only feasible when
// the domain is enumerable.
func runE6(w io.Writer, cfg Config) error {
	tw := table(w)
	fmt.Fprintln(tw, "eps\tn\tmethod\ttop5_recall\ttop5_f1")
	const bits = 16 // 65k item domain for PEM; baseline uses 8 bits
	for _, eps := range []float64{2, 4} {
		for _, n := range []int{cfg.Users, cfg.Users * 2} {
			// PEM over the 16-bit domain, served.
			recall, f1, err := pemQuality(cfg, eps, bits, n)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%.0f\t%d\tPEM(16bit)\t%.2f\t%.2f\n", eps, n, recall, f1)
			// SFP over 6-letter words (26^6 ≈ 3·10^8 domain).
			recall, f1 = sfpQuality(cfg, eps, n)
			fmt.Fprintf(tw, "%.0f\t%d\tSFP(words)\t%.2f\t%.2f\n", eps, n, recall, f1)
			// Full-domain baseline, 8-bit domain only.
			recall, f1 = baselineQuality(cfg, eps, 8, n)
			fmt.Fprintf(tw, "%.0f\t%d\tOLH(8bit,full)\t%.2f\t%.2f\n", eps, n, recall, f1)
		}
	}
	return tw.Flush()
}

func heavyValues(src ldprand.Source, bits, n int) ([]uint64, []uint64) {
	domain := 1 << uint(bits)
	heavy := []uint64{
		uint64(domain * 3 / 7), uint64(domain * 5 / 9), uint64(domain / 13),
		uint64(domain * 7 / 11), uint64(domain * 2 / 5),
	}
	zipf := workload.NewZipf(src, 2.0, len(heavy)+1)
	out := make([]uint64, n)
	for i := range out {
		k := zipf.Next()
		if k < len(heavy) {
			out[i] = heavy[k]
		} else {
			out[i] = uint64(ldprand.Intn(src, domain))
		}
	}
	return out, heavy
}

func hitQuality(found []uint64, truth []uint64) (recall, f1 float64) {
	fi := make([]int, len(found))
	for i, v := range found {
		fi[i] = int(v)
	}
	ti := make([]int, len(truth))
	for i, v := range truth {
		ti[i] = int(v)
	}
	_, recall, f1 = stats.PrecisionRecall(fi, ti)
	return recall, f1
}

func pemQuality(cfg Config, eps float64, bits, n int) (recall, f1 float64, err error) {
	for trial := 0; trial < cfg.Trials; trial++ {
		src := ldprand.NewSplitMix64(cfg.Seed + uint64(trial) + uint64(eps*7) + uint64(n))
		values, heavy := heavyValues(src, bits, n)
		hits, err := servedPEM(values, eps, bits, 4, 5, src)
		if err != nil {
			return 0, 0, err
		}
		found := make([]uint64, len(hits))
		for i, h := range hits {
			found[i] = h.Value
		}
		r, f := hitQuality(found, heavy)
		recall += r
		f1 += f
	}
	k := float64(cfg.Trials)
	return recall / k, f1 / k, nil
}

func sfpQuality(cfg Config, eps float64, n int) (recall, f1 float64) {
	pool := workload.Words(3000)
	heavy := []string{pool[10], pool[700], pool[1500], pool[2200], pool[2900]}
	for trial := 0; trial < cfg.Trials; trial++ {
		src := ldprand.NewSplitMix64(cfg.Seed + uint64(trial)*31 + uint64(eps*13) + uint64(n))
		zipf := workload.NewZipf(src, 2.0, len(heavy)+1)
		words := make([]string, n)
		for i := range words {
			k := zipf.Next()
			if k < len(heavy) {
				words[i] = heavy[k]
			} else {
				words[i] = pool[ldprand.Intn(src, len(pool))]
			}
		}
		hits, err := heavyhitters.FindSFP(heavyhitters.SFPParams{
			Epsilon: eps, WordLen: 6, HashBits: 6, K: 5, Seed: cfg.Seed,
		}, words, src)
		if err != nil {
			continue
		}
		heavySet := make(map[string]bool, len(heavy))
		for _, h := range heavy {
			heavySet[h] = true
		}
		hitCount := 0
		for _, h := range hits {
			if heavySet[h.Word] {
				hitCount++
			}
		}
		r := float64(hitCount) / float64(len(heavy))
		var p float64
		if len(hits) > 0 {
			p = float64(hitCount) / float64(len(hits))
		}
		recall += r
		if p+r > 0 {
			f1 += 2 * p * r / (p + r)
		}
	}
	k := float64(cfg.Trials)
	return recall / k, f1 / k
}

func baselineQuality(cfg Config, eps float64, bits, n int) (recall, f1 float64) {
	for trial := 0; trial < cfg.Trials; trial++ {
		src := ldprand.NewSplitMix64(cfg.Seed + uint64(trial)*77 + uint64(eps*3) + uint64(n))
		values, heavy := heavyValues(src, bits, n)
		hits, err := heavyhitters.BaselineGRR(eps, bits, 5, values, src)
		if err != nil {
			continue
		}
		found := make([]uint64, len(hits))
		for i, h := range hits {
			found[i] = h.Value
		}
		r, f := hitQuality(found, heavy)
		recall += r
		f1 += f
	}
	k := float64(cfg.Trials)
	return recall / k, f1 / k
}

// runE8 reproduces the spatial trade-off: relative range-query error
// across grid granularities (noise grows with g², discretization
// shrinks with 1/g) plus hotspot hit rate, and the hierarchy as a
// middle ground.
func runE8(w io.Writer, cfg Config) error {
	tw := table(w)
	fmt.Fprintln(tw, "granularity\tavg_rel_err_small_query\tavg_rel_err_large_query\thotspot_hit3")
	n := cfg.Users
	queries := []spatial.Rect{
		{MinX: 0.2, MinY: 0.2, MaxX: 0.35, MaxY: 0.35}, // small, on a hotspot
		{MinX: 0.55, MinY: 0.45, MaxX: 0.7, MaxY: 0.65},
		{MinX: 0.1, MinY: 0.1, MaxX: 0.6, MaxY: 0.6}, // large
		{MinX: 0.3, MinY: 0.5, MaxX: 0.9, MaxY: 0.95},
	}
	clusters := workload.DefaultCityClusters()
	for _, g := range []int{4, 8, 16, 32} {
		var errSmall, errLarge, hotHits float64
		for trial := 0; trial < cfg.Trials; trial++ {
			src := ldprand.NewSplitMix64(cfg.Seed + uint64(g*100+trial))
			points := workload.Locations(src, clusters, n)
			grid, err := spatial.NewGrid(2, g, src)
			if err != nil {
				return err
			}
			for _, p := range points {
				grid.Collect(p)
			}
			for qi, q := range queries {
				truth := 0.0
				for _, p := range points {
					if q.Contains(p) {
						truth++
					}
				}
				got := grid.RangeCount(q)
				rel := math.Abs(got-truth) / math.Max(truth, 1)
				if qi < 2 {
					errSmall += rel / 2
				} else {
					errLarge += rel / 2
				}
			}
			// Hotspot precision: fraction of the top-3 estimated cells
			// lying within 0.15 of a true population center. Noisy
			// fine grids let random empty cells win, dropping this.
			hot := grid.Hotspots(3)
			near := 0
			for _, cell := range hot {
				r := grid.CellRect(cell)
				cx, cy := (r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2
				for _, c := range clusters {
					if math.Hypot(cx-c.Center.X, cy-c.Center.Y) < 0.15 {
						near++
						break
					}
				}
			}
			hotHits += float64(near) / float64(len(hot))
		}
		k := float64(cfg.Trials)
		fmt.Fprintf(tw, "%d\t%.3f\t%.3f\t%.2f\n", g, errSmall/k, errLarge/k, hotHits/k)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// The quadtree with cross-level consistency as the middle ground:
	// it should avoid both failure modes of single-granularity grids.
	fmt.Fprintln(w, "  quadtree (depth 5, consistent) on the same queries:")
	tw = table(w)
	fmt.Fprintln(tw, "structure\tavg_rel_err_small_query\tavg_rel_err_large_query")
	{
		var errSmall, errLarge float64
		for trial := 0; trial < cfg.Trials; trial++ {
			src := ldprand.NewSplitMix64(cfg.Seed + uint64(5000+trial))
			points := workload.Locations(src, clusters, n)
			qt, err := spatial.NewQuadtree(2, 5, src)
			if err != nil {
				return err
			}
			for _, p := range points {
				qt.Collect(p)
			}
			for qi, query := range queries {
				truth := 0.0
				for _, p := range points {
					if query.Contains(p) {
						truth++
					}
				}
				got, err := qt.RangeCount(query)
				if err != nil {
					return err
				}
				rel := math.Abs(got-truth) / math.Max(truth, 1)
				if qi < 2 {
					errSmall += rel / 2
				} else {
					errLarge += rel / 2
				}
			}
		}
		k := float64(cfg.Trials)
		fmt.Fprintf(tw, "quadtree\t%.3f\t%.3f\n", errSmall/k, errLarge/k)
	}
	return tw.Flush()
}

// runE9 reproduces the marginal-release comparison: total variation of
// 2-way marginals for the Fourier method vs full materialization vs
// direct collection, across dimensionality d.
func runE9(w io.Writer, cfg Config) error {
	tw := table(w)
	fmt.Fprintln(tw, "d\tk\tmethod\tavg_tv_2way")
	n := cfg.Users
	const eps = 1.0
	for _, d := range []int{6, 10, 14} {
		probs := make([]float64, d)
		for i := range probs {
			probs[i] = 0.25 + 0.5*float64(i)/float64(d)
		}
		// Evaluate on a few representative 2-way masks.
		masks := []int{0b11, 0b101, (1 << uint(d-1)) | 1}
		for trial := 0; trial < 1; trial++ { // deterministic seeds inside
			src := ldprand.NewSplitMix64(cfg.Seed + uint64(d))
			records := workload.BinaryRecords(src, probs, n)

			fourier, err := marginal.NewFourier(marginal.FourierParams{Epsilon: eps, D: d, K: 2}, src)
			if err != nil {
				return err
			}
			full, err := marginal.NewFullMaterialization(eps, d, src)
			if err != nil {
				return err
			}
			direct, err := marginal.NewDirect(eps, d, masks, src)
			if err != nil {
				return err
			}
			for _, r := range records {
				fourier.Collect(r)
				full.Collect(r)
				direct.Collect(r)
			}
			var tvF, tvFull, tvD float64
			for mi, mask := range masks {
				truth := marginal.TrueMarginal(mask, d, records)
				ft, err := fourier.Marginal(mask)
				if err != nil {
					return err
				}
				tvF += stats.TotalVariation(ft, truth)
				tvFull += stats.TotalVariation(full.Marginal(mask), truth)
				tvD += stats.TotalVariation(direct.Marginal(mi), truth)
			}
			k := float64(len(masks))
			fmt.Fprintf(tw, "%d\t2\tFourier\t%.4f\n", d, tvF/k)
			fmt.Fprintf(tw, "%d\t2\tFullHistogram\t%.4f\n", d, tvFull/k)
			fmt.Fprintf(tw, "%d\t2\tDirect\t%.4f\n", d, tvD/k)
		}
	}
	return tw.Flush()
}

// runE10 reproduces the BLENDER result: blended error vs opt-in
// fraction, against the pure-local and pure-central endpoints.
func runE10(w io.Writer, cfg Config) error {
	tw := table(w)
	fmt.Fprintln(tw, "opt_in\ttv_blended\tvar_central_group\tvar_local_group")
	const d = 32
	n := cfg.Users
	for _, optIn := range []float64{0, 0.01, 0.05, 0.2, 1} {
		var tv float64
		var vOpt, vLoc float64
		for trial := 0; trial < cfg.Trials; trial++ {
			src := ldprand.NewSplitMix64(cfg.Seed + uint64(trial) + uint64(optIn*1000))
			zipf := workload.NewZipf(src, 1.1, d)
			col, err := hybrid.NewCollector(hybrid.Params{Epsilon: 1, Domain: d, OptIn: optIn}, src)
			if err != nil {
				return err
			}
			truth := make([]float64, d)
			for i := 0; i < n; i++ {
				v := zipf.Next()
				truth[v]++
				col.Collect(v)
			}
			tv += stats.TotalVariation(col.EstimateCounts(), truth)
			vOpt, vLoc = col.GroupVariances()
		}
		fmt.Fprintf(tw, "%.2f\t%.4f\t%.3g\t%.3g\n", optIn, tv/float64(cfg.Trials), vOpt, vLoc)
	}
	return tw.Flush()
}

// runE12 reproduces the LDPGen shape: degree-distribution accuracy vs
// ε and synthetic-graph fidelity (edges, degree KS, clustering).
func runE12(w io.Writer, cfg Config) error {
	tw := table(w)
	fmt.Fprintln(tw, "eps\tdegree_ks\tsyn_edge_ratio\tsyn_degree_ks\tcc_true\tcc_syn")
	const nVertices = 800
	for _, eps := range []float64{0.5, 1, 2, 4} {
		var degKS, edgeRatio, synKS, ccTrue, ccSyn float64
		trials := cfg.Trials
		for trial := 0; trial < trials; trial++ {
			src := ldprand.NewSplitMix64(cfg.Seed + uint64(trial) + uint64(eps*10))
			g := workload.BarabasiAlbert(src, nVertices, 4)
			maxDeg := 0
			for _, dd := range g.Degrees() {
				if dd > maxDeg {
					maxDeg = dd
				}
			}
			noisy := graph.NoisyDegrees(eps, g, src)
			degKS += stats.KSDistance(
				graph.DegreeDistribution(noisy, maxDeg),
				graph.TrueDegreeDistribution(g, maxDeg))
			syn, err := graph.Generate(graph.GenParams{Epsilon: eps, Clusters: 5}, g, src)
			if err != nil {
				return err
			}
			edgeRatio += float64(syn.Edges()) / float64(g.Edges())
			synKS += stats.KSDistance(
				graph.TrueDegreeDistribution(syn, maxDeg),
				graph.TrueDegreeDistribution(g, maxDeg))
			ccTrue += g.ClusteringCoefficient()
			ccSyn += syn.ClusteringCoefficient()
		}
		k := float64(trials)
		fmt.Fprintf(tw, "%.1f\t%.3f\t%.2f\t%.3f\t%.3f\t%.3f\n",
			eps, degKS/k, edgeRatio/k, synKS/k, ccTrue/k, ccSyn/k)
	}
	return tw.Flush()
}

// freqMechanismRows lists per-mechanism communication characteristics
// for the E13 table.
func freqMechanismRows(d int) []struct {
	name string
	bits int
	note string
} {
	notes := map[string]string{
		"GRR": "one value; client O(1)",
		"SUE": "one bit per domain item (RAPPOR-style)",
		"OUE": "one bit per domain item",
		"SHE": "one float per domain item — heaviest",
		"THE": "one bit per domain item after client-side threshold",
		"BLH": "1 payload bit + hash seed",
		"OLH": "log2(g) payload bits + hash seed",
		"HRR": "1 sign bit + coefficient index — lightest with index from shared randomness",
	}
	var rows []struct {
		name string
		bits int
		note string
	}
	for _, m := range freq.Mechanisms() {
		o := m.Build(freq.Config{Epsilon: 1, Domain: d, Source: ldprand.NewSplitMix64(1)})
		rows = append(rows, struct {
			name string
			bits int
			note string
		}{m.Name, o.ReportBits(), notes[m.Name]})
	}
	return rows
}
