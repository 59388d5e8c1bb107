// Cross-module integration tests: these exercise realistic pipelines
// spanning several packages, the way a deployment would compose them —
// daily collections through the HTTP service, and workload generators
// feeding system packages.
package repro

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/freq"
	"repro/internal/ldprand"
	"repro/internal/stats"
	"repro/internal/task/freqtask"
	"repro/internal/workload"
)

// TestDailyCollectionPipeline runs the full loop: each user's budget is
// split evenly over daily collections, reports travel through the HTTP
// service, and the published histogram tracks the truth.
func TestDailyCollectionPipeline(t *testing.T) {
	const (
		totalEps = 2.0
		days     = 4
		users    = 3000
		domain   = 16
	)
	params := core.PrivacyParams{Epsilon: totalEps / days, Domain: domain}
	reg := core.NewCollectionRegistry()
	if _, err := reg.Create(core.DefaultCollection, core.FreqCollectionConfig(core.MechanismOLH, params, 0)); err != nil {
		t.Fatal(err)
	}
	svc := core.NewMultiService(reg, nil)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	src := ldprand.NewSplitMix64(1)
	zipf := workload.NewZipf(src, 1.3, domain)
	truthPerDay := make([]float64, domain)
	for day := 0; day < days; day++ {
		for u := 0; u < users; u++ {
			client, err := core.NewClient(core.MechanismOLH, params, src)
			if err != nil {
				t.Fatal(err)
			}
			v := zipf.Next()
			truthPerDay[v]++
			env, err := client.Report(v)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := json.Marshal(env)
			resp, err := http.Post(ts.URL+"/report", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("status %d", resp.StatusCode)
			}
		}
	}

	// Fetch estimates and compare with truth.
	resp, err := http.Get(ts.URL + "/estimate")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var est core.EstimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&est); err != nil {
		t.Fatal(err)
	}
	n := days * users
	if est.Reports != n {
		t.Fatalf("reports %d want %d", est.Reports, n)
	}
	var fr freqtask.EstimateResult
	if err := json.Unmarshal(est.Estimate, &fr); err != nil {
		t.Fatal(err)
	}
	// ε = 0.5 per day over 16 cells with 12k reports gives per-cell
	// σ ≈ 430, i.e. TV around 0.2; fail only well beyond that scale.
	// TotalVariation clamps negative estimates before normalizing.
	if tv := stats.TotalVariation(fr.Counts, truthPerDay); tv > 0.35 {
		t.Fatalf("published TV %.4f too large", tv)
	}
}

// TestAdaptiveOracleSelection checks the E3-informed constructor picks
// the variance winner on both sides of the crossover.
func TestAdaptiveOracleSelection(t *testing.T) {
	eps := 1.0
	small := freq.NewAdaptive(eps, 4, ldprand.NewSplitMix64(1))
	if small.Name() != "GRR" {
		t.Errorf("d=4: picked %s want GRR", small.Name())
	}
	large := freq.NewAdaptive(eps, 1024, ldprand.NewSplitMix64(1))
	if large.Name() != "OLH" {
		t.Errorf("d=1024: picked %s want OLH", large.Name())
	}
	// And the pick must actually have the lower analytic variance.
	grr := freq.NewGRR(eps, 1024, nil)
	if large.TheoreticalVariance(1000) >= grr.TheoreticalVariance(1000) {
		t.Error("adaptive pick is not the variance winner at d=1024")
	}
}

// TestWorkloadFeedsAllSystems is a smoke test that every workload
// generator composes with its consuming system package end to end.
func TestWorkloadFeedsAllSystems(t *testing.T) {
	src := ldprand.NewSplitMix64(2)
	// Zipf → adaptive oracle.
	z := workload.NewZipf(src, 1.2, 32)
	o := freq.NewAdaptive(1, 32, src)
	truth := make([]float64, 32)
	for i := 0; i < 3000; i++ {
		v := z.Next()
		truth[v]++
		o.Collect(v)
	}
	if o.Collected() != 3000 {
		t.Fatal("oracle lost reports")
	}
	est := o.EstimateCounts()
	// Very loose: this is a composition smoke test, not calibration.
	if tv := stats.TotalVariation(est, truth); tv > 0.35 {
		t.Errorf("zipf→oracle TV %.3f", tv)
	}
}
