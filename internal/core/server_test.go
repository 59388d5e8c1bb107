package core

// End-to-end httptest coverage for every HTTP handler: the happy paths
// through /report, /report/batch, /estimate and /status, and the
// rejection paths for malformed envelopes. core_test.go covers the
// statistical behavior of the pipeline; this file pins the HTTP
// contract itself.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/ldprand"
	"repro/internal/task/freqtask"
)

func newTestServer(t *testing.T, mechanism string, shards int) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := newFreqService(mechanism, params(), shards)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

func postJSON(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestHandleReportHappyPath(t *testing.T) {
	_, ts := newTestServer(t, MechanismGRR, 2)
	body, _ := json.Marshal(freqtask.Envelope{Mechanism: "GRR", Value: 3})
	resp := postJSON(t, ts.URL+"/report", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}

	status, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer status.Body.Close()
	var st StatusResponse
	if err := json.NewDecoder(status.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Reports != 1 || st.Mechanism != "GRR" || st.Shards != 2 {
		t.Fatalf("status %+v", st)
	}
}

func TestHandleReportBatchHappyPath(t *testing.T) {
	_, ts := newTestServer(t, MechanismOUE, 3)
	client, err := NewClient(MechanismOUE, params(), ldprand.NewSplitMix64(61))
	if err != nil {
		t.Fatal(err)
	}
	values := make([]int, 120)
	for i := range values {
		values[i] = i % 8
	}
	envs := reportAll(t, client, values)
	body, _ := json.Marshal(envs)
	resp := postJSON(t, ts.URL+"/report/batch", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Accepted != len(envs) || br.Rejected != 0 || br.Error != "" {
		t.Fatalf("batch response %+v", br)
	}

	est, err := http.Get(ts.URL + "/estimate")
	if err != nil {
		t.Fatal(err)
	}
	defer est.Body.Close()
	var er EstimateResponse
	if err := json.NewDecoder(est.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	var fr freqtask.EstimateResult
	if err := json.Unmarshal(er.Estimate, &fr); err != nil {
		t.Fatal(err)
	}
	if er.Reports != len(envs) || len(fr.Counts) != 8 || er.Shards != 3 {
		t.Fatalf("estimate response %+v / %+v", er, fr)
	}
}

func TestHandleReportBatchPartialReject(t *testing.T) {
	svc, ts := newTestServer(t, MechanismGRR, 2)
	batch := []freqtask.Envelope{
		{Mechanism: "GRR", Value: 1},
		{Mechanism: "GRR", Value: 99}, // out of domain
		{Mechanism: "GRR", Value: 2},
	}
	body, _ := json.Marshal(batch)
	resp := postJSON(t, ts.URL+"/report/batch", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Accepted != 2 || br.Rejected != 1 || !strings.Contains(br.Error, "out of domain") {
		t.Fatalf("batch response %+v", br)
	}
	// The valid envelopes still landed.
	if got := defaultAggregator(t, svc).Collected(); got != 2 {
		t.Fatalf("collected %d want 2", got)
	}
}

func TestHandleReportRejectsMalformedEnvelopes(t *testing.T) {
	cases := []struct {
		name      string
		mechanism string
		env       freqtask.Envelope
	}{
		{"wrong mechanism name", MechanismGRR, freqtask.Envelope{Mechanism: "OLH", Value: 1}},
		{"unknown mechanism name", MechanismGRR, freqtask.Envelope{Mechanism: "NOPE", Value: 1}},
		{"out-of-range GRR value", MechanismGRR, freqtask.Envelope{Mechanism: "GRR", Value: 8}},
		{"negative GRR value", MechanismGRR, freqtask.Envelope{Mechanism: "GRR", Value: -1}},
		{"bad base64 bits", MechanismOUE, freqtask.Envelope{Mechanism: "OUE", Bits: "***"}},
		{"empty bits", MechanismOUE, freqtask.Envelope{Mechanism: "OUE", Bits: ""}},
		{"wrong SHE length", freqtask.MechanismSHE, freqtask.Envelope{Mechanism: "SHE", Reals: []float64{1}}},
		{"overflow-scale SHE component", freqtask.MechanismSHE,
			freqtask.Envelope{Mechanism: "SHE", Reals: []float64{1.7e308, 0, 0, 0, 0, 0, 0, 0}}},
		{"negative overflow SHE component", freqtask.MechanismSHE,
			freqtask.Envelope{Mechanism: "SHE", Reals: []float64{0, -1e10, 0, 0, 0, 0, 0, 0}}},
		{"bad HRR sign", freqtask.MechanismHRR, freqtask.Envelope{Mechanism: "HRR", Value: 1, Sign: 2}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			svc, ts := newTestServer(t, c.mechanism, 2)
			body, _ := json.Marshal(c.env)
			resp := postJSON(t, ts.URL+"/report", body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d want 400", resp.StatusCode)
			}
			if defaultAggregator(t, svc).Collected() != 0 {
				t.Fatal("rejected envelope was counted")
			}
		})
	}
}

func TestHandleReportRejectsOversizeBody(t *testing.T) {
	_, ts := newTestServer(t, MechanismGRR, 2)
	// Syntactically valid but oversize JSON bodies: the decoder must
	// hit the MaxBytesReader limit before accepting them, and the
	// status must be 413 — not 400, which would send the client off
	// debugging its JSON instead of its body size. The batch limit is
	// deliberately higher than the single-report limit, so each
	// endpoint is probed just past its own bound.
	huge := []byte(`{"mechanism":"GRR","bits":"` + strings.Repeat("A", maxReportBytes+1024) + `","value":1}`)
	resp := postJSON(t, ts.URL+"/report", huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize /report status %d want 413", resp.StatusCode)
	}

	hugeBatch := []byte(`[{"mechanism":"GRR","bits":"` + strings.Repeat("A", maxBatchBytes+1024) + `","value":1}]`)
	resp = postJSON(t, ts.URL+"/report/batch", hugeBatch)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize /report/batch status %d want 413", resp.StatusCode)
	}

	// Just under the limit is still a 400 (bad JSON), proving the 413
	// path triggers on size, not on content.
	small := []byte(`{"mechanism":"GRR","bits":` + strings.Repeat("A", 512))
	resp = postJSON(t, ts.URL+"/report", small)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed small /report status %d want 400", resp.StatusCode)
	}
}

// TestHandleReportRejectsTrailingGarbage pins the framing fix: a body
// holding a valid JSON value followed by anything else (a concatenated
// second envelope, a stray brace) must be rejected, not silently
// truncated to the first value.
func TestHandleReportRejectsTrailingGarbage(t *testing.T) {
	cases := []struct {
		name, path, body string
	}{
		{"second envelope", "/report", `{"mechanism":"GRR","value":1}{"mechanism":"GRR","value":2}`},
		{"stray brace", "/report", `{"mechanism":"GRR","value":1}}`},
		{"junk text", "/report", `{"mechanism":"GRR","value":1} extra`},
		{"second batch", "/report/batch", `[{"mechanism":"GRR","value":1}][{"mechanism":"GRR","value":2}]`},
		{"batch stray bracket", "/report/batch", `[{"mechanism":"GRR","value":1}]]`},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			svc, ts := newTestServer(t, MechanismGRR, 2)
			resp := postJSON(t, ts.URL+c.path, []byte(c.body))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d want 400", resp.StatusCode)
			}
			if got := defaultAggregator(t, svc).Collected(); got != 0 {
				t.Fatalf("garbage-framed request aggregated %d reports", got)
			}
		})
	}
	// Trailing whitespace stays legal: it is part of JSON framing.
	_, ts := newTestServer(t, MechanismGRR, 2)
	resp := postJSON(t, ts.URL+"/report", []byte("{\"mechanism\":\"GRR\",\"value\":1}\n  "))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("trailing whitespace rejected with %d", resp.StatusCode)
	}
}

func TestHandleBatchRejectsGarbage(t *testing.T) {
	_, ts := newTestServer(t, MechanismGRR, 2)
	// Not JSON at all.
	resp := postJSON(t, ts.URL+"/report/batch", []byte("[{"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage batch status %d", resp.StatusCode)
	}
	// A single object where an array is required.
	resp = postJSON(t, ts.URL+"/report/batch", []byte(`{"mechanism":"GRR","value":1}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("object batch status %d", resp.StatusCode)
	}
	// Wrong method.
	getResp, err := http.Get(ts.URL + "/report/batch")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /report/batch status %d", getResp.StatusCode)
	}
}

// TestBatchAndSingleReportsAgree drives the same envelope stream
// through /report and /report/batch servers and checks the two end in
// the identical aggregate state — the wire framing must not affect
// estimates.
func TestBatchAndSingleReportsAgree(t *testing.T) {
	single, tsSingle := newTestServer(t, MechanismGRR, 2)
	batched, tsBatch := newTestServer(t, MechanismGRR, 4)

	client, err := NewClient(MechanismGRR, params(), ldprand.NewSplitMix64(67))
	if err != nil {
		t.Fatal(err)
	}
	values := make([]int, 300)
	src := ldprand.NewSplitMix64(68)
	for i := range values {
		values[i] = ldprand.Intn(src, 8)
	}
	envs := reportAll(t, client, values)

	for _, env := range envs {
		body, _ := json.Marshal(env)
		resp := postJSON(t, tsSingle.URL+"/report", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("single status %d", resp.StatusCode)
		}
	}
	for i := 0; i < len(envs); i += 100 {
		body, _ := json.Marshal(envs[i : i+100])
		resp := postJSON(t, tsBatch.URL+"/report/batch", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("batch status %d", resp.StatusCode)
		}
	}

	mSingle, err := defaultAggregator(t, single).Merged()
	if err != nil {
		t.Fatal(err)
	}
	mBatch, err := defaultAggregator(t, batched).Merged()
	if err != nil {
		t.Fatal(err)
	}
	if mSingle.Collected() != mBatch.Collected() {
		t.Fatalf("collected %d vs %d", mSingle.Collected(), mBatch.Collected())
	}
	a, b := freqCounts(t, mSingle), freqCounts(t, mBatch)
	for v := range a {
		if a[v] != b[v] {
			t.Errorf("value %d: single %v batch %v", v, a[v], b[v])
		}
	}
}
