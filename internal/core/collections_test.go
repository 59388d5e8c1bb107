package core

// HTTP contract of the multi-collection surface: registry management
// routes, per-collection data-plane routes, the flat-route aliasing
// onto the default collection, and the epoch cache behind /estimate.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/ldprand"
	"repro/internal/task/freqtask"
)

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	return string(b)
}

func doDelete(t *testing.T, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestCollectionsLifecycle(t *testing.T) {
	_, ts := newTestServer(t, MechanismGRR, 2)

	// Create a second survey with its own mechanism and parameters.
	resp := postJSON(t, ts.URL+"/collections",
		[]byte(`{"name":"study-a","mechanism":"OUE","epsilon":1,"domain":4,"shards":3}`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	var created StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	if created.Collection != "study-a" || created.Mechanism != "OUE" || created.Shards != 3 {
		t.Fatalf("created %+v", created)
	}

	// Duplicate name → 409; invalid config → 400; bad name → 400.
	if resp := postJSON(t, ts.URL+"/collections", []byte(`{"name":"study-a","mechanism":"OUE","epsilon":1,"domain":4}`)); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create status %d want 409", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/collections", []byte(`{"name":"x","mechanism":"NOPE","epsilon":1,"domain":4}`)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad mechanism status %d want 400", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/collections", []byte(`{"name":"../evil","mechanism":"GRR","epsilon":1,"domain":4}`)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad name status %d want 400", resp.StatusCode)
	}

	// Listing shows both surveys, sorted.
	var listing []StatusResponse
	if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/collections")), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing) != 2 || listing[0].Collection != DefaultCollection || listing[1].Collection != "study-a" {
		t.Fatalf("listing %+v", listing)
	}

	// Reports route to their own collection only.
	client, err := NewClient("OUE", PrivacyParams{Epsilon: 1, Domain: 4}, ldprand.NewSplitMix64(5))
	if err != nil {
		t.Fatal(err)
	}
	env, err := client.Report(2)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(env)
	if resp := postJSON(t, ts.URL+"/collections/study-a/report", body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("study-a report status %d", resp.StatusCode)
	}
	var st StatusResponse
	if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/collections/study-a/status")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Reports != 1 {
		t.Fatalf("study-a reports %d want 1", st.Reports)
	}
	if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/status")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Reports != 0 || st.Collection != DefaultCollection {
		t.Fatalf("default status %+v", st)
	}

	// Unknown collections are 404 on every data-plane route.
	if resp := postJSON(t, ts.URL+"/collections/nope/report", body); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown collection report status %d want 404", resp.StatusCode)
	}
	resp404, err := http.Get(ts.URL + "/collections/nope/estimate")
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown collection estimate status %d want 404", resp404.StatusCode)
	}

	// Delete removes the survey; the default is protected.
	if resp := doDelete(t, ts.URL+"/collections/study-a"); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d want 204", resp.StatusCode)
	}
	if resp := doDelete(t, ts.URL+"/collections/study-a"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete status %d want 404", resp.StatusCode)
	}
	if resp := doDelete(t, ts.URL+"/collections/default"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("delete default status %d want 400", resp.StatusCode)
	}
}

// TestCollectionCreateRejectsResourceBombs pins the remote-surface
// caps: POST /collections must bounce configurations whose aggregator
// would allocate unbounded memory, before any allocation happens.
func TestCollectionCreateRejectsResourceBombs(t *testing.T) {
	_, ts := newTestServer(t, MechanismGRR, 2)
	bombs := []string{
		`{"name":"b1","mechanism":"GRR","epsilon":1,"domain":2000000000}`,
		`{"name":"b2","mechanism":"GRR","epsilon":1,"domain":8,"shards":100000}`,
		`{"name":"b3","mechanism":"OLH","epsilon":1000,"domain":8}`,
		// Each axis within its cap, but the product (tally cells) is not.
		`{"name":"b4","mechanism":"OUE","epsilon":1,"domain":262144,"shards":64}`,
	}
	for _, body := range bombs {
		resp := postJSON(t, ts.URL+"/collections", []byte(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bomb %s: status %d want 400", body, resp.StatusCode)
		}
	}
	// The caps leave realistic configurations untouched.
	resp := postJSON(t, ts.URL+"/collections",
		[]byte(`{"name":"ok","mechanism":"OLH","epsilon":4,"domain":65536,"shards":8}`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("realistic config status %d want 201", resp.StatusCode)
	}
}

// TestCollectionCountCap pins the registry-size cap: looping creates
// must hit 429 instead of growing server memory without bound.
func TestCollectionCountCap(t *testing.T) {
	_, ts := newTestServer(t, MechanismGRR, 1)
	made := 0
	for i := 0; ; i++ {
		body := []byte(fmt.Sprintf(`{"name":"c%d","mechanism":"GRR","epsilon":1,"domain":2,"shards":1}`, i))
		resp := postJSON(t, ts.URL+"/collections", body)
		if resp.StatusCode == http.StatusTooManyRequests {
			break
		}
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, resp.StatusCode)
		}
		if made++; made > maxCollections {
			t.Fatalf("created %d collections without hitting the cap", made)
		}
	}
	if made != maxCollections-1 { // the default collection occupies one slot
		t.Fatalf("cap hit after %d creates, want %d", made, maxCollections-1)
	}
}

// TestAddBatchErrorCap pins the bounded batch error: a systematically
// broken batch reports the first rejections in detail plus a summary
// count, never one error line per envelope.
func TestAddBatchErrorCap(t *testing.T) {
	agg, err := NewShardedAggregator(FreqTaskConfig(MechanismGRR, params()), 2)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]json.RawMessage, 100)
	for i := range batch {
		batch[i] = mustRaw(t, freqtask.Envelope{Mechanism: "GRR", Value: 999}) // all out of domain
	}
	accepted, err := agg.AddBatch(batch)
	if accepted != 0 || err == nil {
		t.Fatalf("accepted %d, err %v", accepted, err)
	}
	msg := err.Error()
	if !strings.Contains(msg, fmt.Sprintf("and %d more rejected envelopes", 100-maxBatchErrors)) {
		t.Fatalf("missing suppression summary in %q", msg)
	}
	if n := strings.Count(msg, "envelope "); n != maxBatchErrors {
		t.Fatalf("%d detailed errors, want %d", n, maxBatchErrors)
	}
}

// TestFlatRoutesAliasDefaultCollection pins backward compatibility:
// the flat routes and /collections/default are the same aggregator.
func TestFlatRoutesAliasDefaultCollection(t *testing.T) {
	_, ts := newTestServer(t, MechanismGRR, 2)
	body := []byte(`{"mechanism":"GRR","value":3}`)
	if resp := postJSON(t, ts.URL+"/report", body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("flat report status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/collections/default/report", body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("collection report status %d", resp.StatusCode)
	}
	var flat, scoped EstimateResponse
	if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/estimate")), &flat); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/collections/default/estimate")), &scoped); err != nil {
		t.Fatal(err)
	}
	if flat.Reports != 2 || scoped.Reports != 2 {
		t.Fatalf("reports flat %d scoped %d, want 2 each", flat.Reports, scoped.Reports)
	}
}

// TestEstimateUsesEpochCache is the acceptance-criteria test for the
// epoch cache: repeated /estimate calls on an unchanged collection
// must not re-merge the shards, and any ingestion invalidates exactly
// once.
func TestEstimateUsesEpochCache(t *testing.T) {
	svc, err := newFreqService(MechanismGRR, params(), 4)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	agg := defaultAggregator(t, svc)

	body := []byte(`{"mechanism":"GRR","value":3}`)
	if resp := postJSON(t, ts.URL+"/report", body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("report status %d", resp.StatusCode)
	}

	first := getBody(t, ts.URL+"/estimate")
	merges := agg.MergeCount()
	if merges == 0 {
		t.Fatal("estimate did not merge")
	}
	for i := 0; i < 5; i++ {
		if got := getBody(t, ts.URL+"/estimate"); got != first {
			t.Fatalf("cached estimate drifted:\n%s\n%s", first, got)
		}
	}
	if got := agg.MergeCount(); got != merges {
		t.Fatalf("idle estimates re-merged: %d merges, want %d", got, merges)
	}

	// New ingestion advances the epoch: exactly one more merge.
	if resp := postJSON(t, ts.URL+"/report", body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("report status %d", resp.StatusCode)
	}
	second := getBody(t, ts.URL+"/estimate")
	if second == first {
		t.Fatal("estimate unchanged after new report")
	}
	getBody(t, ts.URL+"/estimate")
	if got := agg.MergeCount(); got != merges+1 {
		t.Fatalf("merges %d want %d", got, merges+1)
	}
}

// TestMergedCachedSharesSnapshot verifies the cache at the aggregator
// level: same epoch → the very same merged oracle is returned.
func TestMergedCachedSharesSnapshot(t *testing.T) {
	agg, err := NewShardedAggregator(FreqTaskConfig(MechanismGRR, params()), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Add(mustRaw(t, freqtask.Envelope{Mechanism: "GRR", Value: 1})); err != nil {
		t.Fatal(err)
	}
	m1, err := agg.MergedCached()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := agg.MergedCached()
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("unchanged epoch returned a new merge")
	}
	if err := agg.Add(mustRaw(t, freqtask.Envelope{Mechanism: "GRR", Value: 2})); err != nil {
		t.Fatal(err)
	}
	m3, err := agg.MergedCached()
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m1 {
		t.Fatal("advanced epoch served the stale cache")
	}
	if m3.Collected() != 2 {
		t.Fatalf("collected %d want 2", m3.Collected())
	}
	// Reset invalidates too.
	agg.Reset()
	m4, err := agg.MergedCached()
	if err != nil {
		t.Fatal(err)
	}
	if m4.Collected() != 0 {
		t.Fatalf("post-reset collected %d want 0", m4.Collected())
	}
}
