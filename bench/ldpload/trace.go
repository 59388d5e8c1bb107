package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/task"
)

// The traced run replays a workload's configuration in-process, one
// batch at a time on one goroutine, a fixed number of batches, so its
// counts repeat exactly. It records a span around every call it makes
// into a layer's public functions, and hands the durability layer a
// counting, timing fsio.FS, so fsio.write / fsio.sync / fsio.rename are
// genuine child spans of the call that caused them.
//
// Layers nested inside one another with no seam to inject a span at
// (net/http ⊃ handler ⊃ ingest ⊃ shard ⊃ task fold) are separated by
// differential passes over identical input: each pass enters the stack
// one layer further down, and a layer's cost is the difference between
// the medians of two adjacent passes. Spans inside the program are a
// later change; this one only times from outside.

// span is one timed call into a layer. Spans of one batch share Batch;
// Parent is the span that was open when this one began (0 = none).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Workload string `json:"workload"`
	Pass     string `json:"pass"`
	Name     string `json:"name"`
	Batch    int    `json:"batch"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer records spans in memory. One batch is in flight at a time, so
// "the span that caused this one" is simply the innermost open span —
// also for fsio calls made on a server goroutine of the loopback pass.
type tracer struct {
	mu       sync.Mutex
	on       bool
	t0       time.Time
	workload string
	pass     string
	batch    int
	spans    []span
	open     []int
}

func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	id := len(t.spans) + 1
	s := span{ID: id, Workload: t.workload, Pass: t.pass, Name: name, Batch: t.batch, StartNS: int64(time.Since(t.t0))}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = int64(time.Since(t.t0))
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// timed runs f inside a span and returns its wall time; the clock runs
// whether or not spans are being recorded, which is what lets the same
// pass run with recording off to price the recording.
func (t *tracer) timed(name string, f func()) time.Duration {
	id := t.begin(name)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// childTime sums, per span, the time covered by its direct children
// (optionally only those with the given name): self time is a span's
// duration minus this.
func childTime(spans []span, name string) map[int]time.Duration {
	out := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 && (name == "" || s.Name == name) {
			out[s.Parent] += s.dur()
		}
	}
	return out
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// fsCounts is what the counting filesystem has seen so far.
type fsCounts struct {
	Writes, Syncs, Renames, Other int64
	WriteBytes, JournalBytes      int64
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{a.Writes - b.Writes, a.Syncs - b.Syncs, a.Renames - b.Renames, a.Other - b.Other,
		a.WriteBytes - b.WriteBytes, a.JournalBytes - b.JournalBytes}
}

// countingFS wraps an fsio.FS, counting every operation and the bytes
// written (journal segments separately), and recording each write, sync
// and rename as a span. It delegates every method unchanged.
type countingFS struct {
	inner fsio.FS
	tr    *tracer
	mu    sync.Mutex
	n     fsCounts
}

func (c *countingFS) counts() fsCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *countingFS) count(f func(*fsCounts)) {
	c.mu.Lock()
	f(&c.n)
	c.mu.Unlock()
}

func (c *countingFS) other() { c.count(func(n *fsCounts) { n.Other++ }) }

func (c *countingFS) MkdirAll(path string, perm fs.FileMode) error {
	c.other()
	return c.inner.MkdirAll(path, perm)
}

func (c *countingFS) CreateTemp(dir, pattern string) (fsio.File, error) {
	c.other()
	f, err := c.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countingFile{inner: f, fs: c}, nil
}

func (c *countingFS) OpenFile(path string, flag int, perm fs.FileMode) (fsio.File, error) {
	c.other()
	f, err := c.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{inner: f, fs: c, journal: strings.Contains(filepath.Base(path), ".journal.")}, nil
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	c.count(func(n *fsCounts) { n.Renames++ })
	id := c.tr.begin("fsio.rename")
	defer c.tr.end(id)
	return c.inner.Rename(oldpath, newpath)
}

func (c *countingFS) Remove(path string) error {
	c.other()
	return c.inner.Remove(path)
}

func (c *countingFS) ReadDir(path string) ([]fs.DirEntry, error) {
	c.other()
	return c.inner.ReadDir(path)
}

func (c *countingFS) ReadFile(path string) ([]byte, error) {
	c.other()
	return c.inner.ReadFile(path)
}

func (c *countingFS) Stat(path string) (fs.FileInfo, error) {
	c.other()
	return c.inner.Stat(path)
}

func (c *countingFS) Glob(pattern string) ([]string, error) {
	c.other()
	return c.inner.Glob(pattern)
}

func (c *countingFS) Truncate(path string, size int64) error {
	c.other()
	return c.inner.Truncate(path, size)
}

func (c *countingFS) SyncDir(path string) error {
	c.count(func(n *fsCounts) { n.Syncs++ })
	id := c.tr.begin("fsio.sync")
	defer c.tr.end(id)
	return c.inner.SyncDir(path)
}

type countingFile struct {
	inner   fsio.File
	fs      *countingFS
	journal bool
}

func (f *countingFile) Write(p []byte) (int, error) {
	id := f.fs.tr.begin("fsio.write")
	n, err := f.inner.Write(p)
	f.fs.tr.end(id)
	f.fs.count(func(c *fsCounts) {
		c.Writes++
		c.WriteBytes += int64(n)
		if f.journal {
			c.JournalBytes += int64(n)
		}
	})
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.count(func(c *fsCounts) { c.Syncs++ })
	id := f.fs.tr.begin("fsio.sync")
	defer f.fs.tr.end(id)
	return f.inner.Sync()
}

func (f *countingFile) Close() error { return f.inner.Close() }
func (f *countingFile) Name() string { return f.inner.Name() }

// node is one in-process collection with its durability stack, the
// unit every pass builds afresh. Each node counts its own filesystem
// traffic; all nodes share the run's tracer.
type node struct {
	reg   *core.CollectionRegistry
	col   *core.Collection
	store *core.Store // nil = memory only
	svc   *core.Service
	cfs   *countingFS
	dir   string
}

// newNode creates the workload's collection the way ldpd does: create,
// attach the journal, write the initial snapshot. syncPolicy "" means
// no store at all.
func (r *traceRun) newNode(syncPolicy string) (*node, error) {
	n := &node{reg: core.NewCollectionRegistry(), cfs: &countingFS{inner: fsio.OS, tr: r.tr}}
	var err error
	if n.col, err = n.reg.Create(collectionName, r.w.cfg); err != nil {
		return nil, err
	}
	if syncPolicy != "" {
		if n.dir, err = r.dir(); err != nil {
			return nil, err
		}
		if n.store, err = core.NewStoreFS(n.dir, n.cfs, syncPolicy); err != nil {
			return nil, err
		}
		if err := n.store.Attach(n.col); err != nil {
			return nil, err
		}
		if err := n.store.Save(n.reg, n.col); err != nil {
			return nil, err
		}
	}
	n.svc = core.NewMultiService(n.reg, n.store)
	return n, nil
}

// traceRun carries one workload's traced run.
type traceRun struct {
	w    *workload
	corp *corpus
	raw  [][]json.RawMessage // corp.reports as the JSON ingest path takes them
	tr   *tracer
	base string // scratch directory of this run
	n    int    // measured batches per pass
	dirs int
	seed uint64
	res  *result

	durable *node // the fsync-on node of the ingest pass; the read and store passes continue on it
}

func (r *traceRun) dir() (string, error) {
	r.dirs++
	d := filepath.Join(r.base, fmt.Sprintf("d%02d", r.dirs))
	return d, os.MkdirAll(d, 0o755)
}

func (r *traceRun) set(name string, value float64, unit string, n int) {
	r.res.Metrics[name] = metric{Value: value, Unit: unit, N: n}
}

func batchID(pass string, i int) string { return fmt.Sprintf("trace-%s-%09d", pass, i) }

// ingest folds corpus batch i (cycled) through the collection's
// write-ahead path under a fresh key.
func (r *traceRun) ingest(c *core.Collection, pass string, i int) error {
	b := i % len(r.corp.reports)
	var res core.BatchResult
	var err error
	if r.w.binary {
		res, err = c.IngestBatchBinary(batchID(pass, i), r.corp.reports[b])
	} else {
		res, err = c.IngestBatch(batchID(pass, i), r.raw[b])
	}
	if err == nil && res.Accepted != r.w.batch {
		err = fmt.Errorf("batch %d: accepted %d of %d: %v", i, res.Accepted, r.w.batch, res.RejectErr)
	}
	return err
}

// layerPass is one entry depth of the differential measurement: call
// sends batch i into the stack at that depth.
type layerPass struct {
	name     string // pass name in the span file
	spanName string
	untraced bool // run with span recording off (prices the recording)
	call     func(i int) error

	ns  []float64 // per measured batch, wall nanoseconds
	ids []int     // the batches' spans
}

// runPasses drives the passes interleaved, batch by batch: batch i goes
// through every pass before batch i+1 goes through any. Machine-speed
// drift over the run then hits all passes alike, and a layer's cost is
// taken as the median of the per-batch paired differences between two
// adjacent passes — same input, moments apart — rather than the
// difference of two medians measured seconds apart.
func (r *traceRun) runPasses(passes []*layerPass) error {
	warm := r.warm()
	for i := 0; i < warm+r.n; i++ {
		// The first two passes are the same round trip with recording
		// off and on; they swap places every batch so that neither
		// always runs on the caches the other just warmed.
		passes[0], passes[1] = passes[1], passes[0]
		for _, p := range passes {
			r.tr.on = i >= warm && !p.untraced
			r.tr.pass, r.tr.batch = p.name, i-warm
			id := r.tr.begin(p.spanName)
			start := time.Now()
			err := p.call(i)
			d := time.Since(start)
			r.tr.end(id)
			r.res.Attempted++
			if err != nil {
				r.res.Failed++
				r.tr.on = true
				return fmt.Errorf("traced pass %s, batch %d: %w", p.name, i, err)
			}
			if i >= warm {
				p.ns = append(p.ns, float64(d))
				p.ids = append(p.ids, id)
			}
		}
	}
	r.tr.on = true
	return nil
}

// warm is the number of unrecorded warm-up batches before a pass's
// measured ones.
func (r *traceRun) warm() int { return max(5, r.n/10) }

// pairedDiff is the median over batches of a's time minus b's.
func pairedDiff(a, b *layerPass) float64 {
	d := make([]float64, len(a.ns))
	for i := range d {
		d[i] = a.ns[i] - b.ns[i]
	}
	return median(d)
}

// allocsPer runs call for n more batches and returns the heap
// allocations per batch, the harness's own request construction
// included (a constant on every commit).
func allocsPer(n, from int, call func(i int) error) (float64, error) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.Mallocs
	for i := from; i < from+n; i++ {
		if err := call(i); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs-before) / float64(n), nil
}

// traceWorkload produces the workload's per-layer metrics.
func traceWorkload(h *harness, w *workload, o runOpts) (*result, []span, error) {
	base, err := h.stateDir("trace")
	if err != nil {
		return nil, nil, err
	}
	tr := &tracer{on: true, t0: time.Now(), workload: w.name}
	r := &traceRun{
		w: w, tr: tr, base: base, n: w.traceBatches, seed: o.seed,
		res: &result{Workload: w.name, Trace: true, Metrics: make(map[string]metric), Info: make(map[string]metric), Valid: true},
	}
	if o.smoke {
		r.n = max(10, r.n/10)
	}
	if r.corp, err = buildCorpus(w, o.seed); err != nil {
		return nil, nil, err
	}
	reports := float64(r.corp.reportCount())
	r.set("client.privatize_ns_per_report", float64(r.corp.privatize)/reports, "ns", 0)
	r.set("client.wire_bytes_per_report", float64(r.corp.wireBytes)/reports, "B", 0)
	if !w.binary {
		r.raw = make([][]json.RawMessage, len(r.corp.reports))
		for b, batch := range r.corp.reports {
			for _, env := range batch {
				r.raw[b] = append(r.raw[b], env)
			}
		}
	}
	for _, step := range []func() error{r.ingestLayers, r.readAndStore, r.clusterLayers, r.familySweep} {
		if err := step(); err != nil {
			return nil, nil, err
		}
	}
	r.res.Correct = r.res.Failed == 0
	return r.res, tr.spans, nil
}

// ingestLayers runs the differential passes from the loopback socket
// down to the task fold.
func (r *traceRun) ingestLayers() error {
	w, batch := r.w, float64(r.w.batch)
	path := "/collections/" + collectionName + "/report/batch"
	request := func(pass string, i int, target string) *http.Request {
		req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(r.corp.bodies[i%len(r.corp.bodies)]))
		req.Header.Set("Content-Type", w.contentType())
		req.Header.Set("Idempotency-Key", batchID(pass, i))
		return req
	}
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer client.CloseIdleConnections()

	// Passes 1a/1b: loopback http.Client -> http.Server{Handler}, store
	// attached, journal fsync on — once with span recording off, to
	// price the recording, once with it on.
	roundTrip := func(pass string, untraced bool) (*layerPass, func(), error) {
		nd, err := r.newNode(core.JournalSyncEvery)
		if err != nil {
			return nil, nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		srv := &http.Server{Handler: nd.svc.Handler()}
		served := make(chan struct{})
		go func() {
			_ = srv.Serve(ln) // returns ErrServerClosed at Close below
			close(served)
		}()
		stop := func() {
			_ = srv.Close() // loopback test server; nothing to flush
			<-served
		}
		return &layerPass{name: pass, spanName: "http.roundtrip", untraced: untraced, call: func(i int) error {
			req := request(pass, i, "http://"+ln.Addr().String()+path)
			req.RequestURI = ""
			resp, err := client.Do(req)
			if err != nil {
				return err
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				return fmt.Errorf("status %s", resp.Status)
			}
			return nil
		}}, stop, nil
	}
	untraced, stop, err := roundTrip("roundtrip.untraced", true)
	if err != nil {
		return err
	}
	defer stop()
	rt, stop, err := roundTrip("roundtrip", false)
	if err != nil {
		return err
	}
	defer stop()

	// Pass 2: the handler on a recorder — no socket, same durable stack.
	nd, err := r.newNode(core.JournalSyncEvery)
	if err != nil {
		return err
	}
	handler := nd.svc.Handler()
	hd := &layerPass{name: "handler", spanName: "server.handler", call: func(i int) error {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, request("handler", i, path))
		if rec.Code != http.StatusAccepted {
			return fmt.Errorf("status %d: %s", rec.Code, rec.Body)
		}
		return nil
	}}

	// Pass 3: Collection.IngestBatch[Binary], store attached, fsync on.
	// Its node's filesystem counts are the exact-count metrics; the read
	// and store passes continue on it (see readAndStore).
	if r.durable, err = r.newNode(core.JournalSyncEvery); err != nil {
		return err
	}
	ingestInto := func(name string, nd *node) *layerPass {
		return &layerPass{name: "ingest." + name, spanName: "core.ingest", call: func(i int) error { return r.ingest(nd.col, name, i) }}
	}
	ia := ingestInto("always", r.durable)
	before := r.durable.cfs.counts()

	// Pass 4: same, journal written but never fsynced.
	if nd, err = r.newNode(core.JournalSyncNone); err != nil {
		return err
	}
	in := ingestInto("nosync", nd)

	// Pass 5: no store at all — dedup and the WAL lock, no journal.
	if nd, err = r.newNode(""); err != nil {
		return err
	}
	im := ingestInto("nostore", nd)

	// Pass 6: ShardedAggregator.AddBatch[Binary].
	agg, err := core.NewShardedAggregator(w.cfg.Config, w.cfg.Shards)
	if err != nil {
		return err
	}
	sh := &layerPass{name: "shard", spanName: "shard.addbatch", call: func(i int) error {
		b := i % len(r.corp.reports)
		var n int
		var err error
		if w.binary {
			n, err = agg.AddBatchBinary(r.corp.reports[b])
		} else {
			n, err = agg.AddBatch(r.raw[b])
		}
		if err == nil && n != w.batch {
			err = fmt.Errorf("accepted %d of %d", n, w.batch)
		}
		return err
	}}

	// Pass 7: one task.Aggregator, no sharding.
	one, err := task.New(w.cfg.Config)
	if err != nil {
		return err
	}
	fo := &layerPass{name: "fold", spanName: "task.addbatch", call: func(i int) error {
		b := i % len(r.corp.reports)
		if !w.binary {
			n, err := one.AddBatch(r.raw[b])
			if err == nil && n != w.batch {
				err = fmt.Errorf("accepted %d of %d", n, w.batch)
			}
			return err
		}
		for _, rep := range r.corp.reports[b] {
			if err := addReport(one, rep, true); err != nil {
				return err
			}
		}
		return nil
	}}

	first := len(r.tr.spans)
	if err := r.runPasses([]*layerPass{untraced, rt, hd, ia, in, im, sh, fo}); err != nil {
		return err
	}

	fsn := r.durable.cfs.counts().sub(before)
	syncs := childTime(r.tr.spans[first:], "fsio.sync")
	syncNS := make([]float64, len(ia.ids))
	for i, id := range ia.ids {
		syncNS[i] = float64(syncs[id])
	}
	total := float64(r.warm()+r.n) * batch // the counts cover the warm-up batches too
	r.set("fsio.syncs_per_report", float64(fsn.Syncs)/total, "count", 0)
	r.set("fsio.sync_us_per_batch", median(syncNS)/1e3, "us", len(syncNS))
	r.set("journal.bytes_per_report", float64(fsn.JournalBytes)/total, "B", 0)
	// One checkpoint on top, so fsio.write_bytes covers journal plus
	// snapshot for the same reports.
	if err := r.durable.store.Save(r.durable.reg, r.durable.col); err != nil {
		return err
	}
	r.set("fsio.write_bytes_per_report", float64(r.durable.cfs.counts().sub(before).WriteBytes)/total, "B", 0)

	netNS := pairedDiff(rt, hd)
	handlerSelf := pairedDiff(hd, ia)
	journal := pairedDiff(in, im)
	ingestSelf := pairedDiff(im, sh)
	route := pairedDiff(sh, fo)
	fold, mrt := median(fo.ns), median(rt.ns)
	r.set("http.net_us_per_batch", netNS/1e3, "us", len(rt.ns))
	r.set("server.handler_self_ns_per_report", handlerSelf/batch, "ns", len(hd.ns))
	r.set("ingest.self_ns_per_batch", ingestSelf, "ns", len(im.ns))
	r.set("journal.append_ns_per_batch", journal, "ns", len(in.ns))
	r.set("shard.route_ns_per_report", route/batch, "ns", len(sh.ns))
	r.set("task.fold_ns_per_report", fold/batch, "ns", len(fo.ns))
	r.set("trace.roundtrip_us_per_batch", mrt/1e3, "us", len(rt.ns))
	r.set("trace.overhead_ratio", pairedDiff(rt, untraced)/median(untraced.ns), "ratio", len(rt.ns))
	// Every layer but the fsync is a difference of adjacent passes; the
	// fsync is attributed through its own spans. What the sum leaves of
	// the round trip is the gap to look into.
	attributed := netNS + handlerSelf + ingestSelf + journal + median(syncNS) + route + fold
	r.set("trace.unattributed_ratio", (mrt-attributed)/mrt, "ratio", len(rt.ns))

	// Allocation counts, on the two passes whose layers allocate per
	// report, in their own short loops (reading the allocator's counters
	// stops the world, so not inside the timed passes).
	from := r.warm() + r.n
	extra := max(10, r.n/4)
	a, err := allocsPer(extra, from, hd.call)
	if err != nil {
		return err
	}
	r.set("server.allocs_per_report", a/batch, "count", extra)
	if a, err = allocsPer(extra, from, fo.call); err != nil {
		return err
	}
	r.set("task.fold_allocs_per_report", a/batch, "count", extra)
	return nil
}
