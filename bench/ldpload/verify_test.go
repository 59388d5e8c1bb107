package main

import (
	"bytes"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/core"
	"repro/internal/task"
)

// small returns the workload with a 1000-report corpus.
func small(w workload) *workload {
	w.corpus = 1000 / w.batch
	return &w
}

// serve starts an in-process ldpd-equivalent (two shards, no store)
// holding the workload's collection.
func serve(t *testing.T, w *workload) *httptest.Server {
	t.Helper()
	reg := core.NewCollectionRegistry()
	cfg := w.cfg
	cfg.Shards = 2
	if _, err := reg.Create(collectionName, cfg); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(core.NewMultiService(reg, nil).Handler())
	t.Cleanup(srv.Close)
	return srv
}

// The reference fold must reproduce what a real server serves for each
// workload's configuration, and must notice one missing batch.
func TestReferenceFoldMatchesServedEstimate(t *testing.T) {
	for i := range workloads {
		w := small(workloads[i])
		t.Run(w.name, func(t *testing.T) {
			corp, err := buildCorpus(w, 42)
			if err != nil {
				t.Fatal(err)
			}
			if corp.reportCount() != 1000 {
				t.Fatalf("corpus has %d reports, want 1000", corp.reportCount())
			}
			srv := serve(t, w)
			var tl tally
			ld := newLoader(srv.Client(), srv.URL, w, corp, &tl)
			// One and a half cycles: batches acknowledged twice and once.
			for i := 0; i < w.corpus+w.corpus/2; i++ {
				if !ld.post() {
					t.Fatalf("batch %d was not acknowledged", i)
				}
			}
			if tl.failed.Load() != 0 {
				t.Fatalf("%d failed requests", tl.failed.Load())
			}
			served, err := getJSON(srv.Client(), srv.URL+"/collections/"+collectionName+"/estimate?"+w.estimateQuery(), nil)
			if err != nil {
				t.Fatal(err)
			}

			counts := ld.ackCounts()
			ref, err := referenceFold(w, corp, counts)
			if err != nil {
				t.Fatal(err)
			}
			if want := (w.corpus + w.corpus/2) * w.batch; ref.Collected() != want {
				t.Fatalf("reference holds %d reports, want %d", ref.Collected(), want)
			}
			want, err := expectedEstimate(w, ref, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := compareEstimate(served, want, w.estimateTolerance(ref.Collected())); err != nil {
				t.Fatal(err)
			}
			if w.estimateTolerance(1) == 0 && !bytes.Equal(served, want) {
				t.Fatal("exact workload compared unequal bytes as equal")
			}

			// Drop one acknowledged batch from the reference: the
			// served estimate must no longer pass.
			counts[w.corpus-1]--
			short, err := referenceFold(w, corp, counts)
			if err != nil {
				t.Fatal(err)
			}
			want, err = expectedEstimate(w, short, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := compareEstimate(served, want, w.estimateTolerance(short.Collected())); err == nil {
				t.Fatal("a dropped batch went unnoticed")
			}
		})
	}
}

// Applying the repetition count with Merge must equal folding every
// repetition report by report — the shortcut referenceFold takes.
func TestReferenceFoldScalingEqualsNaiveFold(t *testing.T) {
	for i := range workloads {
		w := small(workloads[i])
		t.Run(w.name, func(t *testing.T) {
			corp, err := buildCorpus(w, 7)
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]int64, w.corpus)
			for b := range counts {
				counts[b] = int64(b%4) * 3 // 0, 3, 6, 9: absent batches and several groups
			}
			ref, err := referenceFold(w, corp, counts)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := task.New(w.cfg.Config)
			if err != nil {
				t.Fatal(err)
			}
			for b, c := range counts {
				for ; c > 0; c-- {
					for _, rep := range corp.reports[b] {
						if err := addReport(naive, rep, w.binary); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			q, _ := url.ParseQuery(w.estimateQuery())
			got, err := ref.Estimate(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := naive.Estimate(q)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Collected() != naive.Collected() {
				t.Fatalf("scaled fold holds %d reports, naive %d", ref.Collected(), naive.Collected())
			}
			if err := compareEstimate(got, want, w.estimateTolerance(naive.Collected())); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCompareEstimateTolerance(t *testing.T) {
	want := []byte(`{"reports":100,"estimate":{"items":[{"item":"a","count":12.5}]}}`)
	near := []byte(`{"reports":100,"estimate":{"items":[{"item":"a","count":12.5000000001}]}}`)
	far := []byte(`{"reports":100,"estimate":{"items":[{"item":"a","count":12.6}]}}`)
	miscount := []byte(`{"reports":101,"estimate":{"items":[{"item":"a","count":12.5}]}}`)
	if err := compareEstimate(near, want, 0); err == nil {
		t.Error("exact comparison accepted differing bytes")
	}
	if err := compareEstimate(near, want, 1e-6); err != nil {
		t.Errorf("reassociation-sized difference rejected: %v", err)
	}
	if err := compareEstimate(far, want, 1e-6); err == nil {
		t.Error("a real difference was accepted")
	}
	if err := compareEstimate(miscount, want, 1); err == nil {
		t.Error("an integer count is exact whatever the tolerance, yet 101 passed for 100")
	}
	if err := compareEstimate([]byte("oops"), want, 1e-6); err == nil {
		t.Error("a non-JSON body was accepted")
	}
}

func TestWorkloadTable(t *testing.T) {
	if _, ok := findWorkload("olh_large_batch"); !ok {
		t.Fatal("olh_large_batch missing")
	}
	if _, ok := findWorkload("nope"); ok {
		t.Fatal("found a workload that does not exist")
	}
	for i := range workloads {
		w := &workloads[i]
		for _, nproc := range []int{1, 2, 8} {
			extra := 0
			if w.reader || w.relay {
				extra = 1
			}
			if got := w.writers(nproc) + extra; got > max(nproc, 1+extra) {
				t.Errorf("%s opens %d connections on %d CPUs", w.name, got, nproc)
			}
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, BENCHMARK.json allows 200", w.name, len(w.why))
		}
	}
	body := encodeBatch([][]byte{[]byte(`{"a":1}`), []byte(`{"b":2}`)}, false)
	if string(body) != `[{"a":1},{"b":2}]` {
		t.Errorf("JSON batch body %s", body)
	}
}
