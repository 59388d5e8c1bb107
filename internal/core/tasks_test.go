package core

// Task-layer integration coverage: one server hosting collections of
// distinct task families, the checkpoint → kill → restart cycle across
// all of them, and backward compatibility with pre-task (untagged)
// snapshots — the acceptance criteria of the task-generic refactor.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/binenc"
	"repro/internal/ldprand"
	"repro/internal/task"
	"repro/internal/task/cmstask"
	"repro/internal/task/meantask"
)

func meanCfg() CollectionConfig {
	return CollectionConfig{
		Config: task.Config{Task: task.TypeMean, Mechanism: meantask.MechanismHarmony, Epsilon: 1, Dim: 2},
		Shards: 2,
	}
}

func sketchCfg() CollectionConfig {
	return CollectionConfig{
		Config: task.Config{Task: task.TypeSketch, Mechanism: cmstask.MechanismCMS, Epsilon: 2, Width: 32, Hashes: 4, SketchSeed: 9},
		Shards: 2,
	}
}

// fillMean drives n harmony reports into a collection's aggregator.
func fillMean(t *testing.T, c *Collection, seed uint64, n int) {
	t.Helper()
	client, err := meantask.NewClient(c.Config().Config, ldprand.NewSplitMix64(seed))
	if err != nil {
		t.Fatal(err)
	}
	src := ldprand.NewSplitMix64(seed + 1)
	for i := 0; i < n; i++ {
		x := make([]float64, client.Dim())
		for j := range x {
			x[j] = 2*ldprand.Float64(src) - 1
		}
		raw, err := client.Report(x)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Aggregator().Add(raw); err != nil {
			t.Fatal(err)
		}
	}
}

// fillSketch drives n CMS reports into a collection's aggregator.
func fillSketch(t *testing.T, c *Collection, seed uint64, n int) {
	t.Helper()
	client, err := cmstask.NewClient(c.Config().Config, ldprand.NewSplitMix64(seed))
	if err != nil {
		t.Fatal(err)
	}
	src := ldprand.NewSplitMix64(seed + 1)
	words := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < n; i++ {
		raw, err := client.Report([]byte(words[ldprand.Intn(src, len(words))]))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Aggregator().Add(raw); err != nil {
			t.Fatal(err)
		}
	}
}

// TestThreeTaskServerRestartCycle is the acceptance-criteria test: one
// server serving freq, mean and sketch collections concurrently, whose
// checkpoint → kill → restart cycle restores all three with
// byte-identical /estimate responses.
func TestThreeTaskServerRestartCycle(t *testing.T) {
	dir := t.TempDir()
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	if _, err := reg.Create(DefaultCollection, FreqCollectionConfig(MechanismOLH, PrivacyParams{Epsilon: 2, Domain: 8}, 2)); err != nil {
		t.Fatal(err)
	}
	svc := NewMultiService(reg, store)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// The mean and sketch collections are created over the HTTP
	// surface, task tag and all.
	for _, body := range []string{
		`{"name":"screen-time","task":"mean","mechanism":"harmony","epsilon":1,"dim":2,"shards":2}`,
		`{"name":"words","task":"sketch","mechanism":"CMS","epsilon":2,"width":32,"hashes":4,"sketch_seed":9,"shards":2}`,
	} {
		resp := postJSON(t, ts.URL+"/collections", []byte(body))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create status %d for %s", resp.StatusCode, body)
		}
		var st StatusResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if st.Task != "mean" && st.Task != "sketch" {
			t.Fatalf("created status %+v", st)
		}
	}

	// Ingest into all three through the HTTP data plane.
	fc, _ := NewClient(MechanismOLH, PrivacyParams{Epsilon: 2, Domain: 8}, ldprand.NewSplitMix64(21))
	for i := 0; i < 120; i++ {
		env, err := fc.Report(i % 8)
		if err != nil {
			t.Fatal(err)
		}
		if resp := postJSON(t, ts.URL+"/report", mustRaw(t, env)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("freq report status %d", resp.StatusCode)
		}
	}
	mc, err := meantask.NewClient(task.Config{Task: "mean", Mechanism: "harmony", Epsilon: 1, Dim: 2}, ldprand.NewSplitMix64(22))
	if err != nil {
		t.Fatal(err)
	}
	src := ldprand.NewSplitMix64(23)
	var meanBatch []json.RawMessage
	for i := 0; i < 100; i++ {
		raw, err := mc.Report([]float64{2*ldprand.Float64(src) - 1, 2*ldprand.Float64(src) - 1})
		if err != nil {
			t.Fatal(err)
		}
		meanBatch = append(meanBatch, raw)
	}
	if resp := postJSON(t, ts.URL+"/collections/screen-time/report/batch", mustRaw(t, meanBatch)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("mean batch status %d", resp.StatusCode)
	}
	sc, err := cmstask.NewClient(task.Config{Task: "sketch", Mechanism: "CMS", Epsilon: 2, Width: 32, Hashes: 4, SketchSeed: 9}, ldprand.NewSplitMix64(24))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		raw, err := sc.Report([]byte("hot-item"))
		if err != nil {
			t.Fatal(err)
		}
		if resp := postJSON(t, ts.URL+"/collections/words/report", raw); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("sketch report status %d", resp.StatusCode)
		}
	}

	urls := []string{
		"/estimate?top=3",
		"/collections/screen-time/estimate",
		"/collections/words/estimate?item=hot-item&item=cold-item",
	}
	before := make([]string, len(urls))
	for i, u := range urls {
		before[i] = getBody(t, ts.URL+u)
	}
	// Sanity: the mean estimate parses and carries the harmony shape.
	var er EstimateResponse
	if err := json.Unmarshal([]byte(before[1]), &er); err != nil {
		t.Fatal(err)
	}
	if er.Task != "mean" || er.Reports != 100 {
		t.Fatalf("mean estimate response %+v", er)
	}
	var mr meantask.EstimateResult
	if err := json.Unmarshal(er.Estimate, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Dim != 2 || len(mr.Means) != 2 {
		t.Fatalf("mean payload %+v", mr)
	}

	if err := store.SaveAll(reg); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	// "Kill" the process; restore from disk into a fresh stack.
	store2, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := NewCollectionRegistry()
	restored, err := store2.Load(reg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 3 {
		t.Fatalf("restored %v, want 3 collections", restored)
	}
	ts2 := httptest.NewServer(NewMultiService(reg2, store2).Handler())
	defer ts2.Close()
	for i, u := range urls {
		if after := getBody(t, ts2.URL+u); after != before[i] {
			t.Fatalf("%s changed across restart:\n%s\n%s", u, before[i], after)
		}
	}

	// Restored collections keep collecting.
	c, ok := reg2.Get("screen-time")
	if !ok {
		t.Fatal("screen-time not restored")
	}
	fillMean(t, c, 31, 10)
	if got := c.Aggregator().Collected(); got != 110 {
		t.Fatalf("post-restore collected %d want 110", got)
	}
}

// TestPreTaskSnapshotRestoresAsFreq pins the untagged config at the
// store level: a snapshot whose config names no task — how every
// pre-task collection was configured, and what POST /collections still
// accepts — restores as a freq collection holding the state a bare
// frequency oracle wrote (the frozen internal/freq fixture), and the
// tag is explicit from then on.
func TestPreTaskSnapshotRestoresAsFreq(t *testing.T) {
	state := fixtureFile(t, "freq/testdata/state_OLH.bin")
	oracle, err := newOracle(MechanismOLH, PrivacyParams{Epsilon: 1.25, Domain: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.UnmarshalState(state); err != nil {
		t.Fatal(err)
	}
	untagged, err := encodeSnapshot(CollectionSnapshot{
		Version: SnapshotVersion,
		Name:    "untagged",
		Config:  CollectionConfig{Config: task.Config{Mechanism: MechanismOLH, Epsilon: 1.25, Domain: 16}, Shards: 3},
		State:   state,
		Enc:     EncBinary,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(untagged, []byte(`"task"`)) {
		t.Fatalf("forged snapshot names a task: %q", untagged)
	}
	dir, store, reg := loadFixtureDir(t, map[string][]byte{"untagged.json": untagged}, 1)
	c, _ := reg.Get("untagged")
	if c.Aggregator().TaskType() != task.TypeFreq {
		t.Fatalf("untagged snapshot restored as task %q", c.Aggregator().TaskType())
	}
	// The restored config is normalized to an explicit tag, so config
	// comparisons (ldpd's restored-vs-flags check) and re-written
	// snapshots don't carry a phantom untagged variant.
	if c.Config() != FreqCollectionConfig(MechanismOLH, PrivacyParams{Epsilon: 1.25, Domain: 16}, 3) {
		t.Fatalf("restored config %+v not equal to its tagged equivalent", c.Config())
	}
	if c.Aggregator().Collected() != 200 {
		t.Fatalf("collected %d want 200", c.Aggregator().Collected())
	}
	if !reflect.DeepEqual(counts(t, c), oracle.EstimateCounts()) {
		t.Fatal("untagged snapshot estimates differ from the originating oracle")
	}

	fill(t, c, 43, 10) // advance the epoch so Save writes
	if err := store.Save(reg, c); err != nil {
		t.Fatal(err)
	}
	if snap := readSnapshotFile(t, filepath.Join(dir, "untagged.json")); snap.Config.Task != task.TypeFreq {
		t.Fatalf("re-written snapshot config task %q, want %q", snap.Config.Task, task.TypeFreq)
	}
}

// TestTaggedSnapshotRoundTripsPerTask pins the checkpoint cycle for
// each new task family at the store level.
func TestTaggedSnapshotRoundTripsPerTask(t *testing.T) {
	dir := t.TempDir()
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	cm, err := reg.Create("means", meanCfg())
	if err != nil {
		t.Fatal(err)
	}
	fillMean(t, cm, 51, 150)
	cs, err := reg.Create("sketches", sketchCfg())
	if err != nil {
		t.Fatal(err)
	}
	fillSketch(t, cs, 52, 150)
	if err := store.SaveAll(reg); err != nil {
		t.Fatal(err)
	}

	reg2 := NewCollectionRegistry()
	store2, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store2.Load(reg2); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"means", "sketches"} {
		before, _ := reg.Get(name)
		after, ok := reg2.Get(name)
		if !ok {
			t.Fatalf("%s not restored", name)
		}
		if after.Config() != before.Config() {
			t.Fatalf("%s config %+v want %+v", name, after.Config(), before.Config())
		}
		if after.Aggregator().Collected() != before.Aggregator().Collected() {
			t.Fatalf("%s collected %d want %d", name, after.Aggregator().Collected(), before.Aggregator().Collected())
		}
		query := map[string][]string{"item": {"alpha", "delta"}}
		b, err := before.Aggregator().Estimate(query)
		if err != nil {
			t.Fatal(err)
		}
		a, err := after.Aggregator().Estimate(query)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s estimate changed across restore:\n%s\n%s", name, b, a)
		}
	}
}

// TestFutureSnapshotVersionRefused pins the version guard: a snapshot
// from a newer build is quarantined instead of being misread.
func TestFutureSnapshotVersionRefused(t *testing.T) {
	dir := t.TempDir()
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	c, err := reg.Create("tomorrow", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	fill(t, c, 7, 20)
	if err := store.SaveAll(reg); err != nil {
		t.Fatal(err)
	}
	claimVersion(t, filepath.Join(dir, "tomorrow.json"), 99)
	restored, err := store.Load(NewCollectionRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 0 {
		t.Fatalf("restored %v from a future-version snapshot", restored)
	}
	if _, err := os.Stat(filepath.Join(dir, "tomorrow.json"+corruptExt)); err != nil {
		t.Fatal("future-version snapshot was not quarantined:", err)
	}
}

// plainAgg is a minimal task.Aggregator — no phases, a one-varint
// binary envelope — registered under a test-only type name: the
// smallest adapter the sharded aggregator must serve.
type plainAgg struct{ sum, n int }

func init() {
	task.Register("plain-test", func(cfg task.Config) (task.Aggregator, error) {
		return &plainAgg{}, nil
	})
}

type plainReport struct {
	V int `json:"v"`
}

func (p *plainAgg) Type() string                  { return "plain-test" }
func (p *plainAgg) Add(raw json.RawMessage) error { return task.Add(p, raw) }
func (p *plainAgg) Translate(w *binenc.Writer, raw json.RawMessage) error {
	var r plainReport
	if err := json.Unmarshal(raw, &r); err != nil {
		return err
	}
	w.Varint(int64(r.V))
	return nil
}
func (p *plainAgg) PrepareBinary(payload []byte) (any, error) {
	r := binenc.NewReader(payload)
	v := r.Varint()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if v < 0 {
		return nil, fmt.Errorf("plain-test: negative report")
	}
	return plainReport{V: int(v)}, nil
}
func (p *plainAgg) Fold(prepared any) error {
	p.sum += prepared.(plainReport).V
	p.n++
	return nil
}
func (p *plainAgg) AddBatch(raws []json.RawMessage) (int, error) { return task.AddAll(p, raws) }
func (p *plainAgg) Collected() int                               { return p.n }
func (p *plainAgg) ReportBits() int                              { return 32 }
func (p *plainAgg) Reset()                                       { p.sum, p.n = 0, 0 }
func (p *plainAgg) Merge(other task.Aggregator) error {
	o, ok := other.(*plainAgg)
	if !ok {
		return task.MergeTypeError(p, other)
	}
	p.sum += o.sum
	p.n += o.n
	return nil
}
func (p *plainAgg) Snapshot() task.Aggregator { cp := *p; return &cp }
func (p *plainAgg) MarshalState() ([]byte, error) {
	return json.Marshal(map[string]int{"sum": p.sum, "n": p.n})
}
func (p *plainAgg) UnmarshalState(data []byte) error {
	var st struct{ Sum, N int }
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	p.sum, p.n = st.Sum, st.N
	return nil
}
func (p *plainAgg) Estimate(q url.Values) (json.RawMessage, error) {
	return json.Marshal(map[string]int{"sum": p.sum})
}

// TestShardedMinimalAdapter pins that an adapter implementing only the
// core interface is served by the one ingest loop: a JSON batch and its
// binary twin are accepted and rejected alike, with the same errors,
// and an envelope that does not translate is rejected with its own
// error.
func TestShardedMinimalAdapter(t *testing.T) {
	agg, err := NewShardedAggregator(task.Config{Task: "plain-test"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Add(json.RawMessage(`{"v":3}`)); err != nil {
		t.Fatal(err)
	}
	if err := agg.Add(json.RawMessage(`{"v":-3}`)); err == nil || err.Error() != "plain-test: negative report" {
		t.Fatalf("single rejection %v, want the report's own error", err)
	}
	if err := agg.Add(json.RawMessage(`{"v":"x"}`)); err == nil || !strings.Contains(err.Error(), "cannot unmarshal string") {
		t.Fatalf("untranslatable report: %v, want its JSON error", err)
	}
	batch := []json.RawMessage{
		json.RawMessage(`{"v":1}`),
		json.RawMessage(`{"v":-1}`), // rejected
		json.RawMessage(`{"v":2}`),
	}
	accepted, err := agg.AddBatch(batch)
	if accepted != 2 || err == nil || err.Error() != "envelope 1: plain-test: negative report" {
		t.Fatalf("accepted %d err %v", accepted, err)
	}
	accepted, binErr := agg.AddBatchBinary([][]byte{{2}, {1}, {4}}) // the same values as zig-zag varints
	if accepted != 2 || binErr == nil || binErr.Error() != err.Error() {
		t.Fatalf("binary twin: accepted %d err %v, want 2 and %v", accepted, binErr, err)
	}
	if agg.Collected() != 5 || agg.collectedWalk() != 5 {
		t.Fatalf("collected %d / walk %d want 5", agg.Collected(), agg.collectedWalk())
	}
	merged, err := agg.Merged()
	if err != nil {
		t.Fatal(err)
	}
	est, err := merged.Estimate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(est) != `{"sum":9}` {
		t.Fatalf("estimate %s", est)
	}
	if agg.ReportBits() != 32 {
		t.Fatalf("report bits %d", agg.ReportBits())
	}
}

// recordingPreparer records every envelope a collection translates.
type recordingPreparer struct {
	task.Preparer
	envs *[]json.RawMessage
}

func (r recordingPreparer) Translate(w *binenc.Writer, env json.RawMessage) error {
	*r.envs = append(*r.envs, append(json.RawMessage(nil), env...))
	return r.Preparer.Translate(w, env)
}

// TestBuiltinAdaptersArePreparers pins the Preparer contract for every
// built-in task family, the phased one included: Translate, then
// PrepareBinary, then Fold is Add, bit for bit, and a value prepared by
// one instance folds into another of the same configuration.
func TestBuiltinAdaptersArePreparers(t *testing.T) {
	reg := NewCollectionRegistry()
	for name, tc := range map[string]struct {
		cfg  CollectionConfig
		fill func(*testing.T, *Collection, uint64, int)
	}{
		"freq":   {testCfg(), fill},
		"mean":   {meanCfg(), fillMean},
		"sketch": {sketchCfg(), fillSketch},
		"hh":     {hhCfg(1, 0), fillHH},
	} {
		// A journal-less collection is just a recorder here: its
		// envelopes are replayed through the steps below.
		src, err := reg.Create(name, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var envs []json.RawMessage
		src.agg.proto = recordingPreparer{src.agg.proto, &envs}
		tc.fill(t, src, 77, 30)
		if len(envs) != 30 {
			t.Fatalf("%s: recorded %d envelopes", name, len(envs))
		}
		whole, err := task.New(tc.cfg.Config)
		if err != nil {
			t.Fatal(err)
		}
		steps, _ := task.New(tc.cfg.Config)
		preparer, _ := task.New(tc.cfg.Config)
		for _, env := range envs {
			if err := whole.Add(env); err != nil {
				t.Fatalf("%s: Add: %v", name, err)
			}
			var w binenc.Writer
			if err := preparer.Translate(&w, env); err != nil {
				t.Fatalf("%s: Translate: %v", name, err)
			}
			v, err := preparer.PrepareBinary(w.Bytes())
			if err != nil {
				t.Fatalf("%s: PrepareBinary: %v", name, err)
			}
			if err := steps.Fold(v); err != nil {
				t.Fatalf("%s: Fold: %v", name, err)
			}
		}
		a, _ := whole.MarshalState()
		b, _ := steps.MarshalState()
		if !bytes.Equal(a, b) || preparer.Collected() != 0 {
			t.Errorf("%s: Translate+PrepareBinary+Fold state %x, Add state %x (preparer collected %d)", name, b, a, preparer.Collected())
		}
	}
}

// TestCreateRejectsTaskResourceBombs extends the remote-surface caps to
// the new task families' sizing axes.
func TestCreateRejectsTaskResourceBombs(t *testing.T) {
	_, ts := newTestServer(t, MechanismGRR, 2)
	bombs := []string{
		`{"name":"m1","task":"mean","mechanism":"harmony","epsilon":1,"dim":100000}`,
		`{"name":"s1","task":"sketch","mechanism":"CMS","epsilon":1,"width":100000,"hashes":4}`,
		`{"name":"s2","task":"sketch","mechanism":"CMS","epsilon":1,"width":1024,"hashes":100000}`,
		// Each axis within its cap, but width × hashes × shards is not.
		`{"name":"s3","task":"sketch","mechanism":"CMS","epsilon":1,"width":65536,"hashes":1024,"shards":16}`,
		`{"name":"u1","task":"nope","mechanism":"GRR","epsilon":1,"domain":8}`,
	}
	for _, body := range bombs {
		resp := postJSON(t, ts.URL+"/collections", []byte(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bomb %s: status %d want 400", body, resp.StatusCode)
		}
	}
	// Realistic task configurations pass.
	ok := []string{
		`{"name":"m-ok","task":"mean","mechanism":"duchi","epsilon":1}`,
		`{"name":"s-ok","task":"sketch","mechanism":"HCMS","epsilon":2,"width":1024,"hashes":16,"shards":8}`,
	}
	for _, body := range ok {
		resp := postJSON(t, ts.URL+"/collections", []byte(body))
		if resp.StatusCode != http.StatusCreated {
			t.Errorf("realistic config %s: status %d want 201", body, resp.StatusCode)
		}
	}
}
