package core

// Phase-aware task coverage: the interactive heavy-hitter protocol end
// to end over the HTTP surface (frontier → report → advance, manual
// and quota-driven), round-aware sharding equivalence, the checkpoint
// envelope (round + frontier, future-version quarantine), mid-round
// kill → restart →
// finish-protocol, the estimate-response cache, and the
// advance/checkpoint/delete race regression.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/ldprand"
	"repro/internal/task"
	"repro/internal/task/hhtask"
)

func hhCfg(shards, quota int) CollectionConfig {
	return CollectionConfig{
		Config:       task.Config{Task: task.TypeHH, Mechanism: hhtask.MechanismPEM, Epsilon: 2, Bits: 8, Levels: 4, K: 3},
		Shards:       shards,
		AdvanceQuota: quota,
	}
}

// plantedValue draws from the test population: ~40% hold 0xAB, ~20%
// hold 0x17, the rest spread uniformly over the 8-bit domain.
func plantedValue(src ldprand.Source) uint64 {
	switch ldprand.Intn(src, 10) {
	case 0, 1, 2, 3:
		return 0xAB
	case 4, 5:
		return 0x17
	default:
		return uint64(ldprand.Intn(src, 256))
	}
}

// fillHH drives n planted-population reports into the collection at
// its current round.
func fillHH(t *testing.T, c *Collection, seed uint64, n int) {
	t.Helper()
	client, err := hhtask.NewClient(2, 8, 4, ldprand.NewSplitMix64(seed))
	if err != nil {
		t.Fatal(err)
	}
	src := ldprand.NewSplitMix64(seed + 1)
	round := c.Aggregator().Round()
	for i := 0; i < n; i++ {
		raw, err := client.Report(plantedValue(src), round)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Aggregator().Add(raw); err != nil {
			t.Fatal(err)
		}
	}
}

// decodeFrontier unpacks a FrontierResponse body plus its hh payload.
func decodeFrontier(t *testing.T, body []byte) (FrontierResponse, hhtask.Frontier) {
	t.Helper()
	var fr FrontierResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatalf("frontier response %s: %v", body, err)
	}
	var f hhtask.Frontier
	if err := json.Unmarshal(fr.Frontier, &f); err != nil {
		t.Fatalf("frontier payload %s: %v", fr.Frontier, err)
	}
	return fr, f
}

// TestPhasedProtocolOverHTTP is the tentpole acceptance test at the
// service level: an hh collection is created over POST /collections,
// a client drives all four rounds through frontier/report/advance, the
// planted heavy hitters come back from ?top=k, and the protocol's
// error surface (wrong round → 409, advance past done → 409, frontier
// of a one-shot task → 400) behaves.
func TestPhasedProtocolOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, MechanismGRR, 2)

	resp := postJSON(t, ts.URL+"/collections",
		[]byte(`{"name":"words","task":"hh","epsilon":2,"bits":8,"levels":4,"k":3,"shards":3}`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	var created StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	if created.Task != "hh" || created.Round == nil || *created.Round != 0 || created.Phase != "collecting" {
		t.Fatalf("created status %+v", created)
	}

	base := ts.URL + "/collections/words"
	client, err := hhtask.NewClient(2, 8, 4, ldprand.NewSplitMix64(61))
	if err != nil {
		t.Fatal(err)
	}
	src := ldprand.NewSplitMix64(62)
	for round := 0; round < 4; round++ {
		_, f := decodeFrontier(t, []byte(getBody(t, base+"/frontier")))
		if f.Round != round || f.Done {
			t.Fatalf("frontier round %d done %v, want round %d", f.Round, f.Done, round)
		}
		var batch []json.RawMessage
		for i := 0; i < 500; i++ {
			raw, err := client.Report(plantedValue(src), f.Round)
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, raw)
		}
		if resp := postJSON(t, base+"/report/batch", mustRaw(t, batch)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("round %d batch status %d", round, resp.StatusCode)
		}
		resp := postJSON(t, base+"/advance", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("advance status %d", resp.StatusCode)
		}
		fr, _ := decodeFrontier(t, readAll(t, resp))
		if fr.Round != round+1 {
			t.Fatalf("post-advance round %d want %d", fr.Round, round+1)
		}
	}

	// Done: results come back through the ordinary estimate plane.
	var er EstimateResponse
	if err := json.Unmarshal([]byte(getBody(t, base+"/estimate?top=2")), &er); err != nil {
		t.Fatal(err)
	}
	var hr hhtask.EstimateResult
	if err := json.Unmarshal(er.Estimate, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Phase != hhtask.PhaseDone || len(hr.Hits) != 2 {
		t.Fatalf("estimate %+v", hr)
	}
	if hr.Hits[0].Value != 0xAB {
		t.Fatalf("top hit %+v want 0xAB", hr.Hits[0])
	}
	var st StatusResponse
	if err := json.Unmarshal([]byte(getBody(t, base+"/status")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Round == nil || *st.Round != 4 || st.Phase != "done" || st.Reports != 2000 {
		t.Fatalf("status %+v", st)
	}

	// A stale-round report is 409, not 400 — the client must refetch
	// the frontier, not "fix" its envelope.
	stale, err := client.Report(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if resp := postJSON(t, base+"/report", stale); resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale report status %d want 409", resp.StatusCode)
	}
	// ... and so is a whole batch of them.
	if resp := postJSON(t, base+"/report/batch", mustRaw(t, []json.RawMessage{stale})); resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale batch status %d want 409", resp.StatusCode)
	}
	// Advancing a completed protocol is a conflict too.
	if resp := postJSON(t, base+"/advance", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("advance past done status %d want 409", resp.StatusCode)
	}
	// The phase plane of a one-shot collection is a client error.
	if resp, err := http.Get(ts.URL + "/frontier"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("frontier of freq collection: %v %d", err, resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/advance", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("advance of freq collection status %d want 400", resp.StatusCode)
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConditionalAdvance pins the expected-round guard: POST /advance
// with {"round":N} closes round N exactly once — a second driver
// posting the same close gets 409 and the protocol does not burn an
// empty round — while an empty body stays unconditional.
func TestConditionalAdvance(t *testing.T) {
	_, ts := newTestServer(t, MechanismGRR, 2)
	if resp := postJSON(t, ts.URL+"/collections",
		[]byte(`{"name":"cond","task":"hh","epsilon":2,"bits":8,"levels":4,"k":3,"shards":2}`)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	base := ts.URL + "/collections/cond"
	resp := postJSON(t, base+"/advance", []byte(`{"round":0}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("conditional advance status %d", resp.StatusCode)
	}
	fr, _ := decodeFrontier(t, readAll(t, resp))
	if fr.Round != 1 {
		t.Fatalf("round %d after conditional advance, want 1", fr.Round)
	}
	// The racing duplicate: same expected round, now stale.
	if resp := postJSON(t, base+"/advance", []byte(`{"round":0}`)); resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale conditional advance status %d want 409", resp.StatusCode)
	}
	_, f := decodeFrontier(t, []byte(getBody(t, base+"/frontier")))
	if f.Round != 1 {
		t.Fatalf("stale conditional advance moved the round to %d", f.Round)
	}
	// An empty body advances unconditionally.
	if resp := postJSON(t, base+"/advance", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("unconditional advance status %d", resp.StatusCode)
	}
	_, f = decodeFrontier(t, []byte(getBody(t, base+"/frontier")))
	if f.Round != 2 {
		t.Fatalf("round %d after unconditional advance, want 2", f.Round)
	}
}

// TestAutoAdvanceQuota pins the quota-driven round boundary: with
// advance_quota configured, rounds close themselves as reports arrive
// and the whole protocol completes without one POST /advance.
func TestAutoAdvanceQuota(t *testing.T) {
	_, ts := newTestServer(t, MechanismGRR, 2)
	resp := postJSON(t, ts.URL+"/collections",
		[]byte(`{"name":"auto","task":"hh","epsilon":2,"bits":8,"levels":4,"k":3,"shards":2,"advance_quota":200}`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	base := ts.URL + "/collections/auto"
	client, err := hhtask.NewClient(2, 8, 4, ldprand.NewSplitMix64(71))
	if err != nil {
		t.Fatal(err)
	}
	src := ldprand.NewSplitMix64(72)
	for round := 0; round < 4; round++ {
		_, f := decodeFrontier(t, []byte(getBody(t, base+"/frontier")))
		if f.Round != round {
			t.Fatalf("frontier round %d want %d", f.Round, round)
		}
		var batch []json.RawMessage
		for i := 0; i < 200; i++ {
			raw, err := client.Report(plantedValue(src), round)
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, raw)
		}
		if resp := postJSON(t, base+"/report/batch", mustRaw(t, batch)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("round %d batch status %d", round, resp.StatusCode)
		}
	}
	_, f := decodeFrontier(t, []byte(getBody(t, base+"/frontier")))
	if !f.Done {
		t.Fatalf("protocol not done after quota-driven rounds: %+v", f)
	}
}

// TestShardedAdvanceMatchesSingleAggregator pins the round boundary's
// sharding soundness: the same report stream through a 4-shard
// aggregator and a bare adapter produces bit-identical frontiers after
// every advance.
func TestShardedAdvanceMatchesSingleAggregator(t *testing.T) {
	sharded, err := NewShardedAggregator(hhCfg(4, 0).Config, 4)
	if err != nil {
		t.Fatal(err)
	}
	single, err := task.New(hhCfg(1, 0).Config)
	if err != nil {
		t.Fatal(err)
	}
	client, err := hhtask.NewClient(2, 8, 4, ldprand.NewSplitMix64(81))
	if err != nil {
		t.Fatal(err)
	}
	src := ldprand.NewSplitMix64(82)
	for round := 0; round < 4; round++ {
		for i := 0; i < 400; i++ {
			raw, err := client.Report(plantedValue(src), round)
			if err != nil {
				t.Fatal(err)
			}
			if err := sharded.Add(raw); err != nil {
				t.Fatal(err)
			}
			if err := single.Add(raw); err != nil {
				t.Fatal(err)
			}
		}
		if sharded.RoundReports() != 400 {
			t.Fatalf("round %d reports %d want 400", round, sharded.RoundReports())
		}
		if err := sharded.Advance(); err != nil {
			t.Fatal(err)
		}
		if err := single.(task.Phased).Advance(); err != nil {
			t.Fatal(err)
		}
		want, err := single.(task.Phased).Frontier()
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharded.Frontier()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d frontier diverged:\nsharded %s\nsingle  %s", round, got, want)
		}
		if sharded.Round() != round+1 || sharded.Collected() != (round+1)*400 {
			t.Fatalf("round %d: mirror round %d collected %d", round, sharded.Round(), sharded.Collected())
		}
	}
	if !sharded.Done() {
		t.Fatal("sharded aggregator not done")
	}
	if sharded.collectedWalk() != sharded.Collected() {
		t.Fatalf("walk %d != collected %d after advances", sharded.collectedWalk(), sharded.Collected())
	}
}

// TestPhasedMidRoundRestartResumesProtocol is the kill → restart →
// finish satellite at the store level: a checkpoint taken mid-round
// restores with a bit-identical frontier and the restored stack
// finishes the protocol and recovers the planted hitters.
func TestPhasedMidRoundRestartResumesProtocol(t *testing.T) {
	dir := t.TempDir()
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	c, err := reg.Create("hh", hhCfg(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	fillHH(t, c, 91, 600)
	if err := c.Aggregator().Advance(); err != nil {
		t.Fatal(err)
	}
	fillHH(t, c, 92, 250) // round 1, mid-flight
	if err := store.SaveAll(reg); err != nil {
		t.Fatal(err)
	}
	wantFrontier, err := c.Aggregator().Frontier()
	if err != nil {
		t.Fatal(err)
	}

	// The envelope carries the round and the frontier it was captured
	// at.
	snap := readSnapshotFile(t, filepath.Join(dir, "hh.json"))
	if snap.Version != SnapshotVersion || snap.Round != 1 {
		t.Fatalf("snapshot version %d round %d", snap.Version, snap.Round)
	}
	if !bytes.Equal(snap.Frontier, wantFrontier) {
		t.Fatalf("snapshot frontier:\n%s\nlive:\n%s", snap.Frontier, wantFrontier)
	}

	// Kill; restore into a fresh stack.
	store2, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := NewCollectionRegistry()
	if _, err := store2.Load(reg2); err != nil {
		t.Fatal(err)
	}
	c2, ok := reg2.Get("hh")
	if !ok {
		t.Fatal("hh not restored")
	}
	agg := c2.Aggregator()
	if agg.Round() != 1 || agg.Done() || agg.RoundReports() != 250 || agg.Collected() != 850 {
		t.Fatalf("restored round %d done %v roundReports %d collected %d",
			agg.Round(), agg.Done(), agg.RoundReports(), agg.Collected())
	}
	gotFrontier, err := agg.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotFrontier, wantFrontier) {
		t.Fatalf("frontier changed across restart:\n%s\n%s", wantFrontier, gotFrontier)
	}

	// Finish the protocol on the restored stack.
	fillHH(t, c2, 93, 350)
	for round := 1; round < 4; round++ {
		if err := agg.Advance(); err != nil {
			t.Fatal(err)
		}
		if round < 3 {
			fillHH(t, c2, 94+uint64(round), 600)
		}
	}
	if !agg.Done() {
		t.Fatal("restored protocol did not finish")
	}
	est, err := agg.Estimate(map[string][]string{"top": {"1"}})
	if err != nil {
		t.Fatal(err)
	}
	var res hhtask.EstimateResult
	if err := json.Unmarshal(est, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 1 || res.Hits[0].Value != 0xAB {
		t.Fatalf("restored protocol hits %+v want 0xAB on top", res.Hits)
	}
}

// TestSnapshotRoundTripPerTask pins the current envelope for every
// task family: each snapshot is written at the current version and
// restores to byte-identical estimates (one-shot tasks carry no
// round/frontier).
func TestSnapshotRoundTripPerTask(t *testing.T) {
	dir := t.TempDir()
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()

	cf, err := reg.Create("freqs", FreqCollectionConfig(MechanismOLH, PrivacyParams{Epsilon: 2, Domain: 8}, 2))
	if err != nil {
		t.Fatal(err)
	}
	fill(t, cf, 101, 150)
	cm, err := reg.Create("means", meanCfg())
	if err != nil {
		t.Fatal(err)
	}
	fillMean(t, cm, 102, 150)
	cs, err := reg.Create("sketches", sketchCfg())
	if err != nil {
		t.Fatal(err)
	}
	fillSketch(t, cs, 103, 150)
	ch, err := reg.Create("hitters", hhCfg(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	fillHH(t, ch, 104, 150)
	if err := store.SaveAll(reg); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"freqs", "means", "sketches", "hitters"} {
		snap := readSnapshotFile(t, filepath.Join(dir, name+".json"))
		if snap.Version != SnapshotVersion {
			t.Errorf("%s snapshot version %d want %d", name, snap.Version, SnapshotVersion)
		}
		if phased := name == "hitters"; (len(snap.Frontier) > 0) != phased {
			t.Errorf("%s frontier presence = %v, want %v", name, len(snap.Frontier) > 0, phased)
		}
	}

	reg2 := NewCollectionRegistry()
	store2, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store2.Load(reg2); err != nil {
		t.Fatal(err)
	}
	query := map[string][]string{"item": {"alpha"}, "top": {"3"}}
	for _, name := range []string{"freqs", "means", "sketches", "hitters"} {
		before, _ := reg.Get(name)
		after, ok := reg2.Get(name)
		if !ok {
			t.Fatalf("%s not restored", name)
		}
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

// TestSnapshotVersion6Quarantined pins the version guard at exactly
// one past the current version — the first envelope this build must
// not guess at, however sound its framing and checksum. The file is
// set aside, not restored, and startup continues.
func TestSnapshotVersion6Quarantined(t *testing.T) {
	logged := captureLog(t)
	dir := t.TempDir()
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	if _, err := reg.Create("next", testCfg()); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveAll(reg); err != nil {
		t.Fatal(err)
	}
	claimVersion(t, filepath.Join(dir, "next.json"), SnapshotVersion+1)

	restored, err := store.Load(NewCollectionRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 0 {
		t.Fatalf("restored %v from a future-version snapshot", restored)
	}
	if _, err := os.Stat(filepath.Join(dir, "next.json"+corruptExt)); err != nil {
		t.Fatal("future-version snapshot was not quarantined:", err)
	}
	if !strings.Contains(logged.String(), "version 6 is newer than this build's 5") {
		t.Fatalf("quarantined for another reason:\n%s", logged)
	}
}

// TestTornRoundSnapshotQuarantined pins the round cross-check: a
// phased envelope whose recorded round disagrees with its state blob
// must not restore — it is set aside under .corrupt instead.
func TestTornRoundSnapshotQuarantined(t *testing.T) {
	dir := t.TempDir()
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	c, err := reg.Create("torn", hhCfg(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	fillHH(t, c, 121, 50)
	if err := store.SaveAll(reg); err != nil {
		t.Fatal(err)
	}
	snap := readSnapshotFile(t, filepath.Join(dir, "torn.json"))
	snap.Round++ // the envelope now claims a round the state is not at
	// Re-wrap with a valid checksum: the corruption under test is the
	// round field, not the framing.
	writeSnapshotFile(t, filepath.Join(dir, "torn.json"), snap)
	store2, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := NewCollectionRegistry()
	restored, err := store2.Load(reg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 0 || reg2.Len() != 0 {
		t.Fatalf("restored %v from a torn-round snapshot", restored)
	}
	if _, err := os.Stat(filepath.Join(dir, "torn.json"+corruptExt)); err != nil {
		t.Fatal("torn-round snapshot was not quarantined:", err)
	}
}

// TestEstimateResponseCache pins the per-query cache satellite: a
// repeated query is served from the cache, a different query is not, a
// new report invalidates, and a round advance invalidates.
func TestEstimateResponseCache(t *testing.T) {
	agg, err := NewShardedAggregator(hhCfg(2, 0).Config, 2)
	if err != nil {
		t.Fatal(err)
	}
	client, err := hhtask.NewClient(2, 8, 4, ldprand.NewSplitMix64(131))
	if err != nil {
		t.Fatal(err)
	}
	src := ldprand.NewSplitMix64(132)
	addOne := func() {
		raw, err := client.Report(plantedValue(src), agg.Round())
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Add(raw); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		addOne()
	}

	q := map[string][]string{"top": {"3"}}
	first, err := agg.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if agg.estHits.Load() != 0 {
		t.Fatalf("cache hits %d before any repeat", agg.estHits.Load())
	}
	again, err := agg.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if agg.estHits.Load() != 1 {
		t.Fatalf("cache hits %d after repeat, want 1", agg.estHits.Load())
	}
	if !bytes.Equal(first, again) {
		t.Fatalf("cached estimate differs:\n%s\n%s", first, again)
	}
	// A distinct query misses, then hits on its own repeat.
	q2 := map[string][]string{"top": {"1"}}
	if _, err := agg.Estimate(q2); err != nil {
		t.Fatal(err)
	}
	if agg.estHits.Load() != 1 {
		t.Fatalf("cache hits %d after distinct query, want 1", agg.estHits.Load())
	}
	if _, err := agg.Estimate(q2); err != nil {
		t.Fatal(err)
	}
	if agg.estHits.Load() != 2 {
		t.Fatalf("cache hits %d, want 2", agg.estHits.Load())
	}
	// A new report moves the epoch: the next read recomputes.
	addOne()
	refreshed, err := agg.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if agg.estHits.Load() != 2 {
		t.Fatalf("cache hit served a stale epoch (hits %d)", agg.estHits.Load())
	}
	var before, after hhtask.EstimateResult
	if err := json.Unmarshal(first, &before); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(refreshed, &after); err != nil {
		t.Fatal(err)
	}
	if after.RoundReports != before.RoundReports+1 {
		t.Fatalf("refreshed estimate round reports %d want %d", after.RoundReports, before.RoundReports+1)
	}
	// An advance invalidates too: the cached payload names the old
	// round.
	if _, err := agg.Estimate(q); err != nil { // warm the cache
		t.Fatal(err)
	}
	if err := agg.Advance(); err != nil {
		t.Fatal(err)
	}
	advanced, err := agg.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(advanced, &after); err != nil {
		t.Fatal(err)
	}
	if after.Round != 1 {
		t.Fatalf("post-advance estimate served round %d, want 1", after.Round)
	}
}

// TestAdvanceCheckpointDeleteRace is the satellite regression: round
// advances, checkpoint flushes, estimate reads, ingestion and a
// DELETE+recreate of the same name hammer one phased collection
// concurrently; the test passing under -race with no deadlock — and
// the state directory still loading cleanly — is the assertion.
func TestAdvanceCheckpointDeleteRace(t *testing.T) {
	dir := t.TempDir()
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	svc := NewMultiService(reg, store)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/collections",
		[]byte(`{"name":"hammer","task":"hh","epsilon":2,"bits":8,"levels":4,"k":3,"shards":4}`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}

	const rounds = 12
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Reporters: current-round envelopes, tolerating wrong-round
	// rejections around every advance.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			client, err := hhtask.NewClient(2, 8, 4, ldprand.NewSplitMix64(seed))
			if err != nil {
				t.Error(err)
				return
			}
			src := ldprand.NewSplitMix64(seed + 1)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c, ok := reg.Get("hammer")
				if !ok {
					continue // deleted; the deleter recreates it
				}
				round := c.Aggregator().Round()
				if round >= 4 {
					continue // protocol done; awaiting recreate
				}
				raw, err := client.Report(plantedValue(src), round)
				if err != nil {
					t.Error(err)
					return
				}
				_ = c.Aggregator().Add(raw) // wrong-round rejects are expected
			}
		}(uint64(141 + r))
	}
	// Checkpointer: continuous SaveAll, racing every advance.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := store.SaveAll(reg); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
			}
		}
	}()
	// Estimator: merged reads must never observe a torn round.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c, ok := reg.Get("hammer")
				if !ok {
					continue
				}
				if _, err := c.Aggregator().Estimate(map[string][]string{"top": {"2"}}); err != nil {
					t.Errorf("estimate: %v", err)
					return
				}
			}
		}
	}()
	// Deleter: DELETE + recreate over HTTP, racing checkpoints and
	// advances on the same name.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			req, err := http.NewRequest(http.MethodDelete, ts.URL+"/collections/hammer", nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusNotFound {
				t.Errorf("delete status %d", resp.StatusCode)
				return
			}
			cr := postJSON(t, ts.URL+"/collections",
				[]byte(`{"name":"hammer","task":"hh","epsilon":2,"bits":8,"levels":4,"k":3,"shards":4}`))
			if cr.StatusCode != http.StatusCreated && cr.StatusCode != http.StatusConflict {
				t.Errorf("recreate status %d", cr.StatusCode)
				return
			}
		}
	}()

	// Advancer (foreground): drive many round boundaries through the
	// churn, then stop everyone.
	advanced := 0
	for advanced < rounds {
		c, ok := reg.Get("hammer")
		if !ok {
			continue
		}
		if err := c.Aggregator().Advance(); err == nil {
			advanced++
		} // "protocol complete" after delete/recreate churn resets: fine
	}
	close(stop)
	wg.Wait()

	// Whatever interleaving happened, the directory must hold either
	// no snapshot or a consistent one — never a torn round.
	store2, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store2.Load(NewCollectionRegistry()); err != nil {
		t.Fatalf("post-race state dir does not load: %v", err)
	}
}

// TestStatusUnchangedAcrossMidRoundRestart pins the /status plane's
// restart exactness: with a checkpoint mid-protocol and further
// journal-only reports on top, a kill → restart serves a byte-identical
// /status — in particular round_reports, which the restore derives from
// the aggregator's round counter rather than any per-report state.
func TestStatusUnchangedAcrossMidRoundRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	c, err := reg.Create("words", hhCfg(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Attach(c); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(reg, c); err != nil {
		t.Fatal(err)
	}
	client, err := hhtask.NewClient(2, 8, 4, ldprand.NewSplitMix64(151))
	if err != nil {
		t.Fatal(err)
	}
	src := ldprand.NewSplitMix64(152)
	ingest := func(id string, n int) {
		t.Helper()
		round := c.Aggregator().Round()
		batch := make([]json.RawMessage, n)
		for i := range batch {
			raw, err := client.Report(plantedValue(src), round)
			if err != nil {
				t.Fatal(err)
			}
			batch[i] = raw
		}
		if _, err := c.IngestBatch(id, batch); err != nil {
			t.Fatal(err)
		}
	}
	ingest("r0", 600)
	if err := c.AdvanceExpecting(0); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveAll(reg); err != nil { // checkpoint at round 1, 0 reports
		t.Fatal(err)
	}
	ingest("r1", 250) // journal-only: lives past the last checkpoint

	ts := httptest.NewServer(NewMultiService(reg, store).Handler())
	want := getBody(t, ts.URL+"/collections/words/status")
	ts.Close()
	var st StatusResponse
	if err := json.Unmarshal([]byte(want), &st); err != nil {
		t.Fatal(err)
	}
	if st.Round == nil || *st.Round != 1 || st.RoundReports == nil || *st.RoundReports != 250 || st.Reports != 850 {
		t.Fatalf("pre-kill status %s", want)
	}

	// Kill without a final checkpoint; restore from checkpoint + journal.
	store2, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := NewCollectionRegistry()
	if _, err := store2.Load(reg2); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(NewMultiService(reg2, store2).Handler())
	defer ts2.Close()
	got := getBody(t, ts2.URL+"/collections/words/status")
	if got != want {
		t.Fatalf("/status changed across restart:\nbefore %s\nafter  %s", want, got)
	}
}
