package cms_test

// This package is the client half; the server is the sketch task
// ldpd serves (internal/task/cmstask). These tests feed it this
// package's reports — its JSON envelope carries a Report or a
// HadamardReport field for field — and check the pair end to end.

import (
	"encoding/base64"
	"encoding/json"
	"math"
	"net/url"
	"testing"
	"testing/quick"

	"repro/internal/cms"
	"repro/internal/ldprand"
	"repro/internal/task"
	"repro/internal/task/cmstask"
	"repro/internal/workload"
)

func newServer(mech string, p cms.Params) (task.Aggregator, error) {
	return cmstask.New(task.Config{Task: task.TypeSketch, Mechanism: mech,
		Epsilon: p.Epsilon, Width: p.Width, Hashes: p.Hashes, SketchSeed: p.Seed})
}

func mustServer(t *testing.T, mech string, p cms.Params) task.Aggregator {
	t.Helper()
	a, err := newServer(mech, p)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func addCMS(a task.Aggregator, r cms.Report) error {
	bits := make([]byte, r.Bits.Len())
	for i := range bits {
		if r.Bits.Get(i) {
			bits[i] = 1
		}
	}
	return addCMSBytes(a, r.Row, bits)
}

// addCMSBytes adds a JSON CMS envelope whose row is one byte per
// coordinate, as it travels.
func addCMSBytes(a task.Aggregator, row int, bits []byte) error {
	raw, err := json.Marshal(cmstask.Envelope{Mechanism: cmstask.MechanismCMS, Row: row,
		Bits: base64.StdEncoding.EncodeToString(bits)})
	if err != nil {
		return err
	}
	return a.Add(raw)
}

func addHCMS(a task.Aggregator, r cms.HadamardReport) error {
	raw, err := json.Marshal(cmstask.Envelope{Mechanism: cmstask.MechanismHCMS, Row: r.Row,
		Index: r.Index, Sign: r.Sign})
	if err != nil {
		return err
	}
	return a.Add(raw)
}

func estimate(t *testing.T, a task.Aggregator, item string) float64 {
	t.Helper()
	raw, err := a.Estimate(url.Values{"item": {item}})
	if err != nil {
		t.Fatal(err)
	}
	var res cmstask.EstimateResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	return res.Items[0].Count
}

// cEps is the debiasing constant (e^x+1)/(e^x−1) of a ±1 coordinate
// kept with probability e^x/(1+e^x).
func cEps(x float64) float64 { return (math.Exp(x) + 1) / (math.Exp(x) - 1) }

// skewed draws n words of a vocabulary, its first word with
// probability heavy and the rest uniformly, and returns them with the
// first word and its true count.
func skewed(seed uint64, n int, heavy float64, vocabulary int) ([]string, string, int) {
	words := workload.Words(vocabulary)
	src := ldprand.NewSplitMix64(seed)
	out := make([]string, n)
	count := 0
	for i := range out {
		if ldprand.Bernoulli(src, heavy) {
			out[i] = words[0]
			count++
		} else {
			out[i] = words[1+ldprand.Intn(src, vocabulary-1)]
		}
	}
	return out, words[0], count
}

// The accuracy tests allow four noise-only standard deviations (each
// report adds (c²−1)/4 to the CMS estimator's variance, c² to HCMS's)
// plus 2 % of n for hash collisions.

func TestCMSEndToEndAccuracy(t *testing.T) {
	p := cms.Params{Epsilon: 4, Width: 256, Hashes: 16, Seed: 99}
	client, _ := cms.NewClient(p, ldprand.NewSplitMix64(3))
	server := mustServer(t, cmstask.MechanismCMS, p)
	const n = 30000
	words, hot, want := skewed(4, n, 0.3, 50)
	for _, w := range words {
		if err := addCMS(server, client.Report([]byte(w))); err != nil {
			t.Fatal(err)
		}
	}
	if server.Collected() != n {
		t.Fatalf("collected %d", server.Collected())
	}
	c := cEps(p.Epsilon / 2)
	tol := 4*math.Sqrt(n*(c*c-1)/4) + 0.02*n
	if got := estimate(t, server, hot); math.Abs(got-float64(want)) > tol {
		t.Errorf("heavy word estimate %.0f want %d (tol %.0f)", got, want, tol)
	}
	if absent := estimate(t, server, "zzzzzz"); math.Abs(absent) > tol {
		t.Errorf("absent word estimate %.0f want about 0", absent)
	}
}

func TestHCMSEndToEndAccuracy(t *testing.T) {
	p := cms.Params{Epsilon: 4, Width: 128, Hashes: 8, Seed: 11}
	client, _ := cms.NewHadamardClient(p, ldprand.NewSplitMix64(6))
	server := mustServer(t, cmstask.MechanismHCMS, p)
	const n = 60000
	words, hot, want := skewed(7, n, 0.4, 30)
	for _, w := range words {
		if err := addHCMS(server, client.Report([]byte(w))); err != nil {
			t.Fatal(err)
		}
	}
	c := cEps(p.Epsilon)
	tol := 4*math.Sqrt(n*c*c) + 0.02*n
	if got := estimate(t, server, hot); math.Abs(got-float64(want)) > tol {
		t.Errorf("estimate %.0f want %d (tol %.0f)", got, want, tol)
	}
}

func TestCMSServerRejectsBadReports(t *testing.T) {
	p := cms.Params{Epsilon: 4, Width: 256, Hashes: 16, Seed: 99}
	s := mustServer(t, cmstask.MechanismCMS, p)
	if err := addCMSBytes(s, -1, make([]byte, p.Width)); err == nil {
		t.Error("negative row accepted")
	}
	if err := addCMSBytes(s, 0, make([]byte, 3)); err == nil {
		t.Error("short report accepted")
	}
	bad := make([]byte, p.Width)
	bad[0] = 7
	if err := addCMSBytes(s, 0, bad); err == nil {
		t.Error("non-binary bit accepted")
	}
	if s.Collected() != 0 {
		t.Errorf("rejected reports were counted: %d", s.Collected())
	}
}

func TestHCMSServerRejectsBadReports(t *testing.T) {
	p := cms.Params{Epsilon: 4, Width: 256, Hashes: 16, Seed: 99}
	s := mustServer(t, cmstask.MechanismHCMS, p)
	for _, r := range []cms.HadamardReport{
		{Row: -1, Index: 0, Sign: 1},
		{Row: 0, Index: p.Width, Sign: 1},
		{Row: 0, Index: 0, Sign: 0},
	} {
		if err := addHCMS(s, r); err == nil {
			t.Errorf("bad report accepted: %+v", r)
		}
	}
}

func TestHCMSOneBit(t *testing.T) {
	p := cms.Params{Epsilon: 4, Width: 256, Hashes: 16, Seed: 99}
	if bits := mustServer(t, cmstask.MechanismHCMS, p).ReportBits(); bits != 1 {
		t.Fatalf("HCMS payload %d bits, want 1", bits)
	}
	if bits := mustServer(t, cmstask.MechanismCMS, p).ReportBits(); bits != p.Width {
		t.Fatalf("CMS payload %d bits, want %d", bits, p.Width)
	}
}

// TestCMSReportAlwaysValidProperty: any item under any reasonable
// parameters yields a report the server accepts.
func TestCMSReportAlwaysValidProperty(t *testing.T) {
	f := func(seed uint64, item []byte, widthRaw, hashesRaw uint8) bool {
		p := cms.Params{
			Epsilon: 2,
			Width:   int(widthRaw%62) + 2,
			Hashes:  int(hashesRaw%16) + 1,
			Seed:    seed,
		}
		client, err := cms.NewClient(p, ldprand.NewSplitMix64(seed))
		if err != nil {
			return false
		}
		server, err := newServer(cmstask.MechanismCMS, p)
		if err != nil {
			return false
		}
		return addCMS(server, client.Report(item)) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHCMSReportAlwaysValidProperty: same for the Hadamard variant
// with power-of-two widths.
func TestHCMSReportAlwaysValidProperty(t *testing.T) {
	f := func(seed uint64, item []byte, widthExpRaw, hashesRaw uint8) bool {
		p := cms.Params{
			Epsilon: 2,
			Width:   1 << (uint(widthExpRaw%7) + 1), // 2..128
			Hashes:  int(hashesRaw%16) + 1,
			Seed:    seed,
		}
		client, err := cms.NewHadamardClient(p, ldprand.NewSplitMix64(seed))
		if err != nil {
			return false
		}
		server, err := newServer(cmstask.MechanismHCMS, p)
		if err != nil {
			return false
		}
		return addHCMS(server, client.Report(item)) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCMSEstimateAdditiveAcrossServers: two servers' sketches merged
// give the same estimate as one server seeing everything, because
// aggregation is a sum of debiased reports — the sharding property
// deployments rely on.
func TestCMSEstimateAdditiveAcrossServers(t *testing.T) {
	p := cms.Params{Epsilon: 2, Width: 64, Hashes: 8, Seed: 7}
	client, _ := cms.NewClient(p, ldprand.NewSplitMix64(2))
	all := mustServer(t, cmstask.MechanismCMS, p)
	halves := []task.Aggregator{mustServer(t, cmstask.MechanismCMS, p), mustServer(t, cmstask.MechanismCMS, p)}
	words := workload.Words(10)
	for i := 0; i < 2000; i++ {
		r := client.Report([]byte(words[i%10]))
		if err := addCMS(all, r); err != nil {
			t.Fatal(err)
		}
		if err := addCMS(halves[i%2], r); err != nil {
			t.Fatal(err)
		}
	}
	if err := halves[0].Merge(halves[1]); err != nil {
		t.Fatal(err)
	}
	for _, w := range words {
		a, b := estimate(t, all, w), estimate(t, halves[0], w)
		if math.Abs(a-b) > 1e-6*(1+math.Abs(a)) {
			t.Fatalf("%s: single %v sharded %v", w, a, b)
		}
	}
}
