package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/ldprand"
	"repro/internal/task"
	"repro/internal/task/cmstask"
	"repro/internal/task/hhtask"
	"repro/internal/task/meantask"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// reps is how often each whole-state operation (checkpoint, restore,
// delta cut, flush) is timed; the metric is the median.
const reps = 5

// readAndStore times the estimate read path and the checkpoint /
// restore / replay path on the node the fsync-on ingest pass filled.
func (r *traceRun) readAndStore() error {
	nd, w := r.durable, r.w
	agg := nd.col.Aggregator()
	query, err := url.ParseQuery(w.estimateQuery())
	if err != nil {
		return err
	}
	r.tr.pass = "estimate"
	next := 1 << 20 // batch indexes past every ingest pass's keys
	write := func() error {
		next++
		return r.ingest(nd.col, "rw", next)
	}
	var cold, hot []float64
	merges, reads := agg.MergeCount(), 0
	for i := 0; i < 4*reps; i++ {
		if err := write(); err != nil {
			return err
		}
		var qerr error
		cold = append(cold, ms(r.tr.timed("estimate.cold", func() { _, _, qerr = agg.EstimateCached(query) })))
		if qerr != nil {
			return qerr
		}
		hot = append(hot, float64(r.tr.timed("estimate.hot", func() { _, _, qerr = agg.EstimateCached(query) }))/1e3)
		if qerr != nil {
			return qerr
		}
		reads += 2
	}
	r.set("estimate.cold_ms", median(cold), "ms", len(cold))
	r.set("estimate.hot_us", median(hot), "us", len(hot))
	r.set("estimate.merges_per_read", float64(agg.MergeCount()-merges)/float64(reads), "count", reads)

	// Checkpoints: one more batch each, so the epoch moved and Save
	// really writes; self time is the span minus its fsio children.
	r.tr.pass = "store"
	var save, saveSelf []float64
	for i := 0; i < reps; i++ {
		if err := write(); err != nil {
			return err
		}
		first := len(r.tr.spans)
		var serr error
		d := r.tr.timed("store.save", func() { serr = nd.store.Save(nd.reg, nd.col) })
		if serr != nil {
			return serr
		}
		save = append(save, ms(d))
		saveSelf = append(saveSelf, ms(d-childTime(r.tr.spans[first:], "")[first+1]))
	}
	info, _ := nd.store.LastCheckpoint(collectionName)
	r.set("store.save_ms", median(save), "ms", len(save))
	r.set("store.save_self_ms", median(saveSelf), "ms", len(saveSelf))
	r.set("store.save_bytes", float64(info.Bytes), "B", 0)

	// Restore: the checkpoint alone, then the checkpoint plus a journal
	// of traceBatches frames; the difference is the replay.
	load := func() (float64, error) {
		var ds []float64
		for i := 0; i < reps; i++ {
			st, err := core.NewStoreFS(nd.dir, nd.cfs, core.JournalSyncEvery)
			if err != nil {
				return 0, err
			}
			reg := core.NewCollectionRegistry()
			var restored []string
			var lerr error
			d := r.tr.timed("store.load", func() { restored, lerr = st.Load(reg) })
			if lerr != nil || len(restored) != 1 {
				return 0, fmt.Errorf("restoring %s: restored %v: %v", nd.dir, restored, lerr)
			}
			ds = append(ds, ms(d))
		}
		return median(ds), nil
	}
	bare, err := load()
	if err != nil {
		return err
	}
	for i := 0; i < r.n; i++ {
		if err := write(); err != nil {
			return err
		}
	}
	replayed, err := load()
	if err != nil {
		return err
	}
	replay := (replayed - bare) * 1e6 // ns
	r.set("store.load_ms", bare, "ms", reps)
	r.set("store.replay_ns_per_frame", replay/float64(r.n), "ns", reps)
	r.set("store.replay_ns_per_report", replay/float64(r.n*w.batch), "ns", reps)

	// The traced state must still be the sequential fold of what went
	// in: every pass on this node acknowledged whole corpus batches.
	counts := make([]int64, len(r.corp.reports))
	for i := 0; i < r.warm()+r.n; i++ {
		counts[i%len(counts)]++
	}
	for i := 1<<20 + 1; i <= next; i++ {
		counts[i%len(counts)]++
	}
	ref, err := referenceFold(w, r.corp, counts)
	if err != nil {
		return err
	}
	want, err := ref.Estimate(query)
	if err != nil {
		return err
	}
	got, reports, err := agg.EstimateCached(query)
	if err != nil {
		return err
	}
	r.res.Attempted++
	if err := compareEstimate(got, want, w.estimateTolerance(ref.Collected())); err != nil || reports != ref.Collected() {
		r.res.Failed++
		r.res.note("VERIFY FAILED: traced node holds %d reports, reference %d: %v", reports, ref.Collected(), err)
	}
	return nil
}

// clusterLayers times the relay path piece by piece — cut, outbox,
// decode+fold, the /merge round trip — and then as one POST /flush with
// one pending delta, against an in-process upstream on a loopback
// socket. It runs for every workload's configuration: a delta of a
// 64-cell histogram and one of a 1 MB sketch are the two ends of it.
func (r *traceRun) clusterLayers() error {
	r.tr.pass = "cluster"
	up, err := r.newNode(core.JournalSyncEvery)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: up.svc.Handler()}
	served := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // returns ErrServerClosed at Close below
		close(served)
	}()
	defer func() {
		_ = srv.Close() // loopback test server; nothing to flush
		<-served
	}()

	// The relay: an empty service whose collection is mirrored from the
	// upstream, as ldpd -mode relay does at boot.
	rdir, err := r.dir()
	if err != nil {
		return err
	}
	cfs := &countingFS{inner: fsio.OS, tr: r.tr}
	store, err := core.NewStoreFS(rdir, cfs, core.JournalSyncEvery)
	if err != nil {
		return err
	}
	outbox, err := cluster.NewOutbox(cfs, filepath.Join(rdir, "outbox"))
	if err != nil {
		return err
	}
	store.SetFlushSink(cluster.FlushSink(outbox))
	upstream := cluster.NewUpstream("http://" + ln.Addr().String())
	svc := core.NewMultiService(core.NewCollectionRegistry(), store)
	relay := cluster.NewRelay(svc, store, upstream, outbox)
	ctx := context.Background()
	if err := relay.SyncCollections(ctx); err != nil {
		return err
	}
	col, ok := svc.Registry().Get(collectionName)
	if !ok {
		return fmt.Errorf("relay did not mirror %q", collectionName)
	}
	handler := relay.Handler()

	const perDelta = 20 // batches folded into each delta
	var cut, put, fold, rtt, flush []float64
	var deltaBytes int
	for i := 0; i < reps; i++ {
		for j := 0; j < perDelta; j++ {
			if err := r.ingest(col, "relay", i*perDelta+j); err != nil {
				return err
			}
		}
		id := batchID("delta", i)
		var d *core.Delta
		var err error
		cut = append(cut, ms(r.tr.timed("core.cutdelta", func() { d, err = col.CutDelta(id) })))
		if err != nil || d == nil {
			return fmt.Errorf("cutting delta %d: %v", i, err)
		}
		blob, err := core.EncodeDeltaBinary(*d)
		if err != nil {
			return err
		}
		deltaBytes = len(blob)
		put = append(put, ms(r.tr.timed("cluster.outbox.put", func() { err = outbox.Put(*d) })))
		if err != nil {
			return err
		}
		// The same delta folds upstream three times under three keys
		// (direct, over the socket, through /flush): each is a full
		// merge of identical size, which is all the timing needs.
		fold = append(fold, ms(r.tr.timed("core.merge", func() {
			var dd core.Delta
			if dd, err = core.DecodeDeltaBinary(blob); err == nil {
				dd.ID = id + "-direct"
				_, err = up.col.IngestMerge(dd)
			}
		})))
		if err != nil {
			return err
		}
		rtt = append(rtt, ms(r.tr.timed("cluster.upstream.merge", func() { _, err = upstream.Merge(ctx, collectionName, blob, id+"-rtt") })))
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		flush = append(flush, ms(r.tr.timed("relay.flush", func() {
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/flush", nil))
		})))
		var fr cluster.FlushResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &fr); err != nil || rec.Code != http.StatusOK || fr.Pending != 0 {
			return fmt.Errorf("POST /flush: %d %s", rec.Code, rec.Body)
		}
	}
	r.res.Attempted += int64(reps * (perDelta + 5))
	r.set("delta.cut_ms", median(cut), "ms", reps)
	r.set("delta.bytes", float64(deltaBytes), "B", 0)
	r.set("outbox.put_ms", median(put), "ms", reps)
	r.set("merge.decode_fold_ms", median(fold), "ms", reps)
	r.set("upstream.merge_rtt_ms", median(rtt), "ms", reps)
	r.set("relay.flush_ms", median(flush), "ms", reps)
	return nil
}

// familySweep times the fold of every task family, mechanism and wire
// encoding the serving stack registers, on a fixed 2000-report input —
// the cost model behind "GRR folds in O(1), OLH in O(d), CMS in
// O(width)". It does not depend on the workload; every traced run
// carries it so a fold regression in a family no workload drives still
// shows.
func (r *traceRun) familySweep() error {
	const n = 2000
	r.tr.pass = "family"
	noise := ldprand.NewSplitMix64(r.seed ^ 0x66616d696c79) // "family"
	type family struct {
		name   string
		cfg    task.Config
		binary bool
		report func(i int) ([]byte, error)
	}
	var fams []family
	for _, mech := range []string{core.MechanismGRR, core.MechanismOLH, core.MechanismOUE} {
		p := core.PrivacyParams{Epsilon: 2, Domain: 256}
		cl, err := core.NewClient(mech, p, noise)
		if err != nil {
			return err
		}
		cfg := core.FreqTaskConfig(mech, p)
		fams = append(fams,
			family{"freq." + mech + ".json", cfg, false, func(i int) ([]byte, error) {
				env, err := cl.Report(i % p.Domain)
				if err != nil {
					return nil, err
				}
				return json.Marshal(env)
			}},
			family{"freq." + mech + ".binary", cfg, true, func(i int) ([]byte, error) { return cl.ReportBinary(i % p.Domain) }})
	}
	meanCfg := task.Config{Task: task.TypeMean, Mechanism: meantask.MechanismDuchi, Epsilon: 2}
	mcl, err := meantask.NewClient(meanCfg, noise)
	if err != nil {
		return err
	}
	fams = append(fams, family{"mean.duchi.binary", meanCfg, true, func(i int) ([]byte, error) {
		return mcl.ReportBinary([]float64{float64(i%200)/100 - 1})
	}})
	for _, mech := range []string{cmstask.MechanismCMS, cmstask.MechanismHCMS} {
		cfg := task.Config{Task: task.TypeSketch, Mechanism: mech, Epsilon: 2, Width: 256, Hashes: 16}
		cl, err := cmstask.NewClient(cfg, noise)
		if err != nil {
			return err
		}
		fams = append(fams, family{"sketch." + mech + ".binary", cfg, true, func(i int) ([]byte, error) {
			return cl.ReportBinary([]byte{byte(i), byte(i >> 8)})
		}})
	}
	hhCfg := task.Config{Task: task.TypeHH, Mechanism: hhtask.MechanismPEM, Epsilon: 2, Bits: 16, Levels: 4, K: 8}
	hcl, err := hhtask.NewClient(hhCfg.Epsilon, hhCfg.Bits, hhCfg.Levels, noise)
	if err != nil {
		return err
	}
	fams = append(fams, family{"hh.PEM.json", hhCfg, false, func(i int) ([]byte, error) {
		return hcl.Report(uint64(i*i)%(1<<16), 0)
	}})

	for _, f := range fams {
		agg, err := task.New(f.cfg)
		if err != nil {
			return err
		}
		reports := make([][]byte, n)
		for i := range reports {
			if reports[i], err = f.report(i); err != nil {
				return fmt.Errorf("family %s: %w", f.name, err)
			}
		}
		d := r.tr.timed("task.add."+f.name, func() {
			for _, rep := range reports {
				if err = addReport(agg, rep, f.binary); err != nil {
					return
				}
			}
		})
		if err != nil {
			return fmt.Errorf("family %s: %w", f.name, err)
		}
		r.set("task."+f.name+".add_ns_per_report", float64(d)/n, "ns", n)
		if p, ok := agg.(task.Phased); ok {
			d := r.tr.timed("task.advance."+f.name, func() { err = p.Advance() })
			if err != nil {
				return err
			}
			r.set("hh.advance_ms", ms(d), "ms", 0)
		}
		r.res.Attempted += n
	}
	return nil
}
