package core

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/ldprand"
	"repro/internal/task/freqtask"
)

func params() PrivacyParams { return PrivacyParams{Epsilon: 2, Domain: 8} }

func TestNewOracleAllMechanisms(t *testing.T) {
	for _, name := range freqtask.Mechanisms() {
		o, err := newOracle(name, params(), ldprand.NewSplitMix64(1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.Name() != name {
			t.Errorf("oracle name %q for registry name %q", o.Name(), name)
		}
	}
}

func TestNewOracleRejectsBad(t *testing.T) {
	if _, err := newOracle("NOPE", params(), nil); err == nil {
		t.Error("unknown mechanism accepted")
	}
	if _, err := newOracle(MechanismGRR, PrivacyParams{Epsilon: 0, Domain: 8}, nil); err == nil {
		t.Error("epsilon 0 accepted")
	}
	if _, err := newOracle(MechanismGRR, PrivacyParams{Epsilon: 1, Domain: 1}, nil); err == nil {
		t.Error("domain 1 accepted")
	}
}

func TestEnvelopeRoundTripAllMechanisms(t *testing.T) {
	// Privatize on a "client" oracle, serialize through JSON, aggregate
	// on a fresh "server" aggregator — the full wire path for every
	// mechanism, checking estimates converge on a skewed input.
	const n = 20000
	for _, name := range freqtask.Mechanisms() {
		name := name
		t.Run(name, func(t *testing.T) {
			client, err := newOracle(name, params(), ldprand.NewSplitMix64(2))
			if err != nil {
				t.Fatal(err)
			}
			server, err := freqtask.New(FreqTaskConfig(name, params()))
			if err != nil {
				t.Fatal(err)
			}
			src := ldprand.NewSplitMix64(4)
			truth := make([]float64, 8)
			for i := 0; i < n; i++ {
				v := 0
				if ldprand.Float64(src) > 0.6 {
					v = 1 + ldprand.Intn(src, 7)
				}
				truth[v]++
				env, err := freqtask.Privatize(client, v)
				if err != nil {
					t.Fatal(err)
				}
				if err := server.Add(mustRaw(t, env)); err != nil {
					t.Fatal(err)
				}
			}
			if server.Collected() != n {
				t.Fatalf("collected %d", server.Collected())
			}
			est := freqCounts(t, server)
			tol := 5*math.Sqrt(client.TheoreticalVariance(n)) + 0.02*n
			if math.Abs(est[0]-truth[0]) > tol {
				t.Errorf("estimate %.0f truth %.0f (tol %.0f)", est[0], truth[0], tol)
			}
		})
	}
}

func TestAggregateRejectsMismatchedMechanism(t *testing.T) {
	grr, _ := freqtask.New(FreqTaskConfig(MechanismGRR, params()))
	if err := grr.Add(mustRaw(t, freqtask.Envelope{Mechanism: "OLH", Value: 1})); err == nil {
		t.Fatal("mechanism mismatch accepted")
	}
}

func TestAggregateRejectsMalformed(t *testing.T) {
	cases := []struct {
		mech string
		env  freqtask.Envelope
	}{
		{MechanismGRR, freqtask.Envelope{Mechanism: "GRR", Value: 99}},
		{MechanismGRR, freqtask.Envelope{Mechanism: "GRR", Value: -1}},
		{MechanismOUE, freqtask.Envelope{Mechanism: "OUE", Bits: "!!!not-base64!!!"}},
		{MechanismOUE, freqtask.Envelope{Mechanism: "OUE", Bits: ""}},
		{freqtask.MechanismSHE, freqtask.Envelope{Mechanism: "SHE", Reals: []float64{1, 2}}},
		{MechanismOLH, freqtask.Envelope{Mechanism: "OLH", Value: 10000}},
		{freqtask.MechanismHRR, freqtask.Envelope{Mechanism: "HRR", Value: 0, Sign: 0}},
		{freqtask.MechanismHRR, freqtask.Envelope{Mechanism: "HRR", Value: -2, Sign: 1}},
	}
	for _, c := range cases {
		o, _ := freqtask.New(FreqTaskConfig(c.mech, params()))
		if err := o.Add(mustRaw(t, c.env)); err == nil {
			t.Errorf("%s: malformed envelope accepted: %+v", c.mech, c.env)
		}
		if o.Collected() != 0 {
			t.Errorf("%s: rejected envelope still counted", c.mech)
		}
	}
}

func TestClientReport(t *testing.T) {
	c, err := NewClient(MechanismOLH, params(), ldprand.NewSplitMix64(7))
	if err != nil {
		t.Fatal(err)
	}
	env, err := c.Report(3)
	if err != nil {
		t.Fatal(err)
	}
	if env.Mechanism != "OLH" {
		t.Errorf("envelope mechanism %q", env.Mechanism)
	}
	if _, err := c.Report(8); err == nil {
		t.Error("out-of-domain report accepted")
	}
	if _, err := c.Report(-1); err == nil {
		t.Error("negative report accepted")
	}
}

func TestServiceEndToEnd(t *testing.T) {
	svc, err := newFreqService(MechanismGRR, params(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	client, _ := NewClient(MechanismGRR, params(), ldprand.NewSplitMix64(8))
	const n = 2000
	src := ldprand.NewSplitMix64(9)
	truth := make([]float64, 8)
	for i := 0; i < n; i++ {
		v := ldprand.Intn(src, 3) // only values 0..2 occur
		truth[v]++
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
			t.Fatalf("report status %d", resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/estimate")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var est EstimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&est); err != nil {
		t.Fatal(err)
	}
	if est.Reports != n || est.Mechanism != "GRR" || est.Task != "freq" {
		t.Fatalf("estimate response %+v", est)
	}
	var fr freqtask.EstimateResult
	if err := json.Unmarshal(est.Estimate, &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Counts) != 8 || fr.Domain != 8 {
		t.Fatalf("estimate payload %+v", fr)
	}
	// Unused values should estimate near zero, used ones near truth.
	for v := 0; v < 8; v++ {
		if math.Abs(fr.Counts[v]-truth[v]) > 0.15*n {
			t.Errorf("value %d: estimate %.0f truth %.0f", v, fr.Counts[v], truth[v])
		}
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
	if st.Reports != n || st.ReportBits < 1 {
		t.Fatalf("status response %+v", st)
	}
}

func TestServiceRejectsBadRequests(t *testing.T) {
	svc, _ := newFreqService(MechanismGRR, params(), 0)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Wrong method on /report.
	resp, _ := http.Get(ts.URL + "/report")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /report status %d", resp.StatusCode)
	}
	// Garbage body.
	resp, _ = http.Post(ts.URL+"/report", "application/json", bytes.NewReader([]byte("{")))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage report status %d", resp.StatusCode)
	}
	// Valid JSON, invalid report.
	body, _ := json.Marshal(freqtask.Envelope{Mechanism: "GRR", Value: 999})
	resp, _ = http.Post(ts.URL+"/report", "application/json", bytes.NewReader(body))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid report status %d", resp.StatusCode)
	}
	// Wrong method on /estimate.
	resp, _ = http.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(nil))
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /estimate status %d", resp.StatusCode)
	}
}

func TestServiceConcurrentReports(t *testing.T) {
	svc, _ := newFreqService(MechanismOUE, params(), 0)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	const workers, per = 8, 50
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(seed uint64) {
			client, err := NewClient(MechanismOUE, params(), ldprand.NewSplitMix64(seed))
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < per; i++ {
				env, err := client.Report(i % 8)
				if err != nil {
					errs <- err
					return
				}
				body, _ := json.Marshal(env)
				resp, err := http.Post(ts.URL+"/report", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
			}
			errs <- nil
		}(uint64(w + 100))
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	resp, _ := http.Get(ts.URL + "/status")
	var st StatusResponse
	_ = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.Reports != workers*per {
		t.Fatalf("reports %d want %d", st.Reports, workers*per)
	}
}
