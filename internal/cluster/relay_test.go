package cluster

// Relay tier end-to-end coverage, over real HTTP (httptest) but in one
// process: a fan-in of relays equals the single node exactly, deltas
// dedup on retry, the relay's /status and /healthz carry its flushing
// standing (including the broken-upstream latch), a stale phased flush
// strands the delta and realigns with the upstream, and the full hh
// protocol driven through a relay produces the single-node hits
// bit-identically.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/ldprand"
	"repro/internal/task"
	"repro/internal/task/freqtask"
	"repro/internal/task/hhtask"
)

func freqCfg() core.CollectionConfig {
	return core.FreqCollectionConfig(core.MechanismGRR, core.PrivacyParams{Epsilon: 2, Domain: 8}, 2)
}

func hhCfg() core.CollectionConfig {
	return core.CollectionConfig{
		Config: task.Config{Task: task.TypeHH, Mechanism: hhtask.MechanismPEM, Epsilon: 2, Bits: 8, Levels: 4, K: 3},
		Shards: 1,
	}
}

// freqBatches privatizes a deterministic workload once, so every path
// (relayed, reference) aggregates byte-identical envelopes.
func freqBatches(t testing.TB, n, size int) [][]json.RawMessage {
	t.Helper()
	cfg := freqCfg()
	client, err := core.NewClient(cfg.Mechanism, cfg.Params(), ldprand.NewSplitMix64(11))
	if err != nil {
		t.Fatal(err)
	}
	src := ldprand.NewSplitMix64(12)
	batches := make([][]json.RawMessage, n)
	for i := range batches {
		envs := make([]json.RawMessage, size)
		for k := range envs {
			env, err := client.Report(ldprand.Intn(src, cfg.Domain))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(env)
			if err != nil {
				t.Fatal(err)
			}
			envs[k] = raw
		}
		batches[i] = envs
	}
	return batches
}

// freqCounts reads the exact debiased estimates out of a collection.
func freqCounts(t testing.TB, c *core.Collection) []float64 {
	t.Helper()
	m, err := c.Aggregator().MergedCached()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := m.Estimate(nil)
	if err != nil {
		t.Fatal(err)
	}
	var res freqtask.EstimateResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	return res.Counts
}

// newUpstream boots a memory-only aggregation node with the given
// collections.
func newUpstream(t testing.TB, cols map[string]core.CollectionConfig) (*core.CollectionRegistry, *httptest.Server) {
	t.Helper()
	reg := core.NewCollectionRegistry()
	for name, cfg := range cols {
		if _, err := reg.Create(name, cfg); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(core.NewMultiService(reg, nil).Handler())
	t.Cleanup(ts.Close)
	return reg, ts
}

// newTestRelay boots a memory-only relay (durable outbox in a temp
// dir) pointed at upstreamURL, mirrored and ready to serve.
func newTestRelay(t testing.TB, upstreamURL string) (*Relay, *core.CollectionRegistry, *httptest.Server) {
	t.Helper()
	reg := core.NewCollectionRegistry()
	svc := core.NewMultiService(reg, nil)
	out, err := NewOutbox(fsio.OS, filepath.Join(t.TempDir(), "outbox"))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRelay(svc, nil, NewUpstream(upstreamURL), out)
	if err := r.SyncCollections(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(ts.Close)
	return r, reg, ts
}

// postBatch ships one JSON report batch and returns the HTTP status.
func postBatch(t testing.TB, url, id string, batch []json.RawMessage) int {
	t.Helper()
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("Idempotency-Key", id)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode
}

func TestRelayFanInMatchesSingleNode(t *testing.T) {
	batches := freqBatches(t, 6, 5)

	// Reference: one node folds everything directly.
	refReg := core.NewCollectionRegistry()
	ref, err := refReg.Create("words", freqCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		if _, err := ref.IngestBatch(fmt.Sprintf("b-%d", i), b); err != nil {
			t.Fatal(err)
		}
	}
	want := freqCounts(t, ref)

	upReg, upTS := newUpstream(t, map[string]core.CollectionConfig{"words": freqCfg()})

	const relays = 2
	var rs [relays]*Relay
	var regs [relays]*core.CollectionRegistry
	var urls [relays]string
	for i := range rs {
		r, reg, ts := newTestRelay(t, upTS.URL)
		rs[i], regs[i], urls[i] = r, reg, ts.URL
		c, ok := reg.Get("words")
		if !ok {
			t.Fatalf("relay %d did not mirror the upstream collection", i)
		}
		if q := c.Config().AdvanceQuota; q != 0 {
			t.Fatalf("relay %d mirrored AdvanceQuota %d, want 0 (the upstream owns round closure)", i, q)
		}
	}

	// Round-robin the batches across the relays, the client's dispatch.
	for i, b := range batches {
		if code := postBatch(t, urls[i%relays]+"/collections/words/report/batch", fmt.Sprintf("b-%d", i), b); code != http.StatusAccepted {
			t.Fatalf("batch %d -> relay %d: status %d", i, i%relays, code)
		}
	}
	for i, r := range rs {
		if err := r.Flush(context.Background()); err != nil {
			t.Fatalf("relay %d flush: %v", i, err)
		}
	}

	up, _ := upReg.Get("words")
	if got := up.Aggregator().Collected(); got != 6*5 {
		t.Fatalf("upstream collected %d reports, want %d", got, 6*5)
	}
	if got := freqCounts(t, up); !reflect.DeepEqual(got, want) {
		t.Fatalf("fan-in estimates = %v, want %v (single node)", got, want)
	}
	// Relays drained: everything cut and acknowledged.
	for i, r := range rs {
		c, _ := regs[i].Get("words")
		if n := c.Aggregator().Collected(); n != 0 {
			t.Fatalf("relay %d still holds %d reports after flush", i, n)
		}
		pending, stranded := r.out.Counts("words")
		if pending != 0 || stranded != 0 {
			t.Fatalf("relay %d outbox: %d pending, %d stranded after clean flush", i, pending, stranded)
		}
	}

	// A second flush with nothing pending ships nothing new upstream.
	if err := rs[0].Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := up.Aggregator().Collected(); got != 6*5 {
		t.Fatalf("empty flush changed the upstream count to %d", got)
	}
}

// TestRelayRefusesOversizeControlBodies pins that a relay answers an
// oversize collection config or advance request with 413, as a single
// node does, and forwards nothing: neither a truncated create reaches
// the upstream nor a round closes there.
func TestRelayRefusesOversizeControlBodies(t *testing.T) {
	upReg, upTS := newUpstream(t, map[string]core.CollectionConfig{"topics": hhCfg()})
	_, _, ts := newTestRelay(t, upTS.URL)
	pad := strings.Repeat("x", 70<<10)
	for _, c := range []struct{ path, body string }{
		{"/collections", `{"name":"big","mechanism":"GRR","epsilon":1,"domain":8,"pad":"` + pad + `"}`},
		{"/collections/topics/advance", `{"round":0,"pad":"` + pad + `"}`},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a 70 KiB body: %s %s, want 413", c.path, resp.Status, msg)
		}
	}
	if _, ok := upReg.Get("big"); ok {
		t.Error("the oversize create reached the upstream")
	}
	up, _ := upReg.Get("topics")
	raw, err := up.Aggregator().Frontier()
	if err != nil {
		t.Fatal(err)
	}
	var fr hhtask.Frontier
	if err := json.Unmarshal(raw, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Round != 0 {
		t.Errorf("upstream round %d after a refused advance, want 0", fr.Round)
	}
}

func TestRelayStatusAndHealthFields(t *testing.T) {
	batches := freqBatches(t, 2, 4)
	_, upTS := newUpstream(t, map[string]core.CollectionConfig{"words": freqCfg()})
	r, _, ts := newTestRelay(t, upTS.URL)

	getJSON := func(url string, v any) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		return resp.StatusCode
	}

	// Before any flush: pending reports are visible, no flush epoch yet.
	if code := postBatch(t, ts.URL+"/collections/words/report/batch", "s-0", batches[0]); code != http.StatusAccepted {
		t.Fatalf("batch status %d", code)
	}
	var st core.StatusResponse
	if code := getJSON(ts.URL+"/collections/words/status", &st); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	if st.Relay == nil {
		t.Fatal("status carries no relay block on a relay-mode process")
	}
	if st.Relay.Upstream != upTS.URL {
		t.Fatalf("relay upstream = %q, want %q", st.Relay.Upstream, upTS.URL)
	}
	if st.Relay.PendingReports != len(batches[0]) || st.Relay.LastFlushUnix != 0 {
		t.Fatalf("pre-flush relay status %+v", st.Relay)
	}

	if err := r.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if getJSON(ts.URL+"/collections/words/status", &st); st.Relay.PendingReports != 0 || st.Relay.LastFlushUnix == 0 {
		t.Fatalf("post-flush relay status %+v", st.Relay)
	}

	var h core.HealthResponse
	if code := getJSON(ts.URL+"/healthz", &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz %d %+v", code, h)
	}
	if h.Relay["words"] == nil || h.Relay["words"].UpstreamBroken {
		t.Fatalf("healthz relay block %+v", h.Relay)
	}

	// Kill the upstream: flushes fail, and after brokenAfter consecutive
	// failures the latch degrades /healthz — the relay is accepting
	// reports it cannot deliver.
	upTS.Close()
	if code := postBatch(t, ts.URL+"/collections/words/report/batch", "s-1", batches[1]); code != http.StatusAccepted {
		t.Fatalf("batch status %d with upstream down (local fold must still work)", code)
	}
	for i := 0; i < brokenAfter; i++ {
		if err := r.Flush(context.Background()); err == nil {
			t.Fatalf("flush %d succeeded against a dead upstream", i)
		}
	}
	if code := getJSON(ts.URL+"/healthz", &h); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz code %d with broken upstream, want 503", code)
	}
	inf := h.Relay["words"]
	if inf == nil || !inf.UpstreamBroken || inf.FlushFailures < brokenAfter || inf.PendingDeltas == 0 {
		t.Fatalf("broken-upstream relay block %+v", inf)
	}
}

// hhEnvelopes privatizes n users for one round, deterministically.
func hhEnvelopes(t testing.TB, seed uint64, round, n int) []json.RawMessage {
	t.Helper()
	client, err := hhtask.NewClient(2, 8, 4, ldprand.NewSplitMix64(seed))
	if err != nil {
		t.Fatal(err)
	}
	src := ldprand.NewSplitMix64(seed + 1)
	envs := make([]json.RawMessage, n)
	for i := range envs {
		v := uint64(0xAB)
		if ldprand.Intn(src, 3) == 0 {
			v = uint64(ldprand.Intn(src, 256))
		}
		if envs[i], err = client.Report(v, round); err != nil {
			t.Fatal(err)
		}
	}
	return envs
}

// TestRelayStaleFlushStrandsAndRealigns is the wrong-round regression:
// the upstream closes a round while a relay still holds reports cut at
// it. The flush 409s, the delta is stranded (acknowledged reports are
// never dropped), the relay refetches the frontier and realigns, and
// the next round's reports flush cleanly.
func TestRelayStaleFlushStrandsAndRealigns(t *testing.T) {
	upReg, upTS := newUpstream(t, map[string]core.CollectionConfig{"top": hhCfg()})
	r, reg, ts := newTestRelay(t, upTS.URL)

	if code := postBatch(t, ts.URL+"/collections/top/report/batch", "hh-0", hhEnvelopes(t, 21, 0, 8)); code != http.StatusAccepted {
		t.Fatalf("round-0 batch status %d", code)
	}
	// Another relay (simulated: a direct advance) closes round 0 first.
	up, _ := upReg.Get("top")
	if err := up.AdvanceExpecting(0); err != nil {
		t.Fatal(err)
	}

	err := r.Flush(context.Background())
	if err == nil {
		t.Fatal("stale flush reported success")
	}
	pending, stranded := r.out.Counts("top")
	if stranded != 1 || pending != 0 {
		t.Fatalf("after stale flush: %d pending, %d stranded; want 0/1", pending, stranded)
	}
	c, _ := reg.Get("top")
	if got := c.Aggregator().Round(); got != 1 {
		t.Fatalf("relay realigned to round %d, want 1", got)
	}

	// The client refetches the frontier through the relay — already
	// aligned, served from upstream — and re-reports into round 1.
	var fr core.FrontierResponse
	resp, err := http.Get(ts.URL + "/collections/top/frontier")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fr.Round != 1 || fr.Phase != "collecting" {
		t.Fatalf("relayed frontier %+v, want round 1 collecting", fr)
	}
	if code := postBatch(t, ts.URL+"/collections/top/report/batch", "hh-1", hhEnvelopes(t, 23, 1, 8)); code != http.StatusAccepted {
		t.Fatalf("round-1 batch status %d", code)
	}
	if err := r.Flush(context.Background()); err != nil {
		t.Fatalf("re-flush after realign: %v", err)
	}
	if got := up.Aggregator().RoundReports(); got != 8 {
		t.Fatalf("upstream round-1 reports = %d, want 8", got)
	}
	// The stranded delta stays on disk for the operator and in /status.
	var st core.StatusResponse
	resp, err = http.Get(ts.URL + "/collections/top/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Relay == nil || st.Relay.StrandedDeltas != 1 {
		t.Fatalf("status relay block %+v, want 1 stranded delta", st.Relay)
	}
}

// TestRelayPhasedProtocolMatchesSingleNode drives the whole hh protocol
// through a relay — reports, per-round conditional advances, frontier
// refetches — and requires the final heavy hitters to be bit-identical
// to a single node folding the same envelopes (hh state is integer
// sums, so exactness is exact).
func TestRelayPhasedProtocolMatchesSingleNode(t *testing.T) {
	upReg, upTS := newUpstream(t, map[string]core.CollectionConfig{"top": hhCfg()})
	_, _, ts := newTestRelay(t, upTS.URL)

	refReg := core.NewCollectionRegistry()
	ref, err := refReg.Create("top", hhCfg())
	if err != nil {
		t.Fatal(err)
	}

	levels := 4
	for round := 0; round < levels; round++ {
		envs := hhEnvelopes(t, uint64(100+round*2), round, 60)
		if code := postBatch(t, ts.URL+"/collections/top/report/batch", fmt.Sprintf("r-%d", round), envs); code != http.StatusAccepted {
			t.Fatalf("round %d batch status %d", round, code)
		}
		if _, err := ref.IngestBatch(fmt.Sprintf("r-%d", round), envs); err != nil {
			t.Fatal(err)
		}
		// Conditional advance through the relay: force-flush, forward,
		// adopt.
		body := strings.NewReader(fmt.Sprintf(`{"round":%d}`, round))
		resp, err := http.Post(ts.URL+"/collections/top/advance", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d advance status %d", round, resp.StatusCode)
		}
		if err := ref.AdvanceExpecting(round); err != nil {
			t.Fatal(err)
		}
	}

	upFr, err := func() (json.RawMessage, error) {
		up, _ := upReg.Get("top")
		return up.Aggregator().Frontier()
	}()
	if err != nil {
		t.Fatal(err)
	}
	refFr, err := ref.Aggregator().Frontier()
	if err != nil {
		t.Fatal(err)
	}
	var got, want hhtask.Frontier
	if err := json.Unmarshal(upFr, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(refFr, &want); err != nil {
		t.Fatal(err)
	}
	if !got.Done || !want.Done {
		t.Fatalf("protocol not done: relayed %v, reference %v", got.Done, want.Done)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("relayed protocol frontier = %+v\nsingle-node reference = %+v", got, want)
	}
}
