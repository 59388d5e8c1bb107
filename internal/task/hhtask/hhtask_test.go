package hhtask

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/heavyhitters"
	"repro/internal/ldprand"
	"repro/internal/task"
)

func cfg() task.Config {
	return task.Config{Task: task.TypeHH, Mechanism: MechanismPEM, Epsilon: 2, Bits: 8, Levels: 4, K: 3}
}

// fixture reads one committed state fixture from testdata.
func fixture(t testing.TB, name string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// driveRound reports n values into a for the aggregator's current
// round, each value drawn from values round-robin.
func driveRound(t *testing.T, a task.Aggregator, c *Client, values []uint64, n int) {
	t.Helper()
	p := a.(task.Phased)
	for i := 0; i < n; i++ {
		raw, err := c.Report(values[i%len(values)], p.Round())
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Add(raw); err != nil {
			t.Fatal(err)
		}
	}
}

// TestProtocolRecoversPlantedHitters runs the full multi-round
// protocol against a skewed population and checks the planted heavy
// hitters dominate the final hits.
func TestProtocolRecoversPlantedHitters(t *testing.T) {
	a, err := task.New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	p := a.(task.Phased)
	client, err := NewClient(2, 8, 4, ldprand.NewSplitMix64(7))
	if err != nil {
		t.Fatal(err)
	}
	// 70% of users hold one of two planted values; the rest spread.
	src := ldprand.NewSplitMix64(8)
	for round := 0; round < 4; round++ {
		if p.Done() {
			t.Fatalf("done before round %d", round)
		}
		for i := 0; i < 900; i++ {
			v := uint64(ldprand.Intn(src, 256))
			switch ldprand.Intn(src, 10) {
			case 0, 1, 2, 3:
				v = 0xAB
			case 4, 5, 6:
				v = 0x17
			}
			raw, err := client.Report(v, round)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Add(raw); err != nil {
				t.Fatal(err)
			}
		}
		if got := p.RoundReports(); got != 900 {
			t.Fatalf("round %d reports %d want 900", round, got)
		}
		if err := p.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Done() || p.Round() != 4 {
		t.Fatalf("done=%v round=%d after final advance", p.Done(), p.Round())
	}
	if a.Collected() != 3600 {
		t.Fatalf("collected %d want 3600", a.Collected())
	}
	raw, err := a.Estimate(url.Values{"top": {"2"}})
	if err != nil {
		t.Fatal(err)
	}
	var res EstimateResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Phase != PhaseDone || len(res.Hits) != 2 {
		t.Fatalf("estimate %+v", res)
	}
	found := map[uint64]bool{}
	for _, h := range res.Hits {
		found[h.Value] = true
	}
	if !found[0xAB] || !found[0x17] {
		t.Fatalf("planted hitters not recovered: %+v", res.Hits)
	}
	// Advancing a done protocol is an error; further reports are
	// wrong-round.
	if err := p.Advance(); err == nil {
		t.Fatal("advance past done succeeded")
	}
	rep, _ := client.Report(1, 3)
	if err := a.Add(rep); !errors.Is(err, task.ErrWrongRound) {
		t.Fatalf("post-done add error %v, want ErrWrongRound", err)
	}
}

// TestWrongRoundRejected pins the round-tag contract: stale and future
// rounds bounce with task.ErrWrongRound and are not accumulated.
func TestWrongRoundRejected(t *testing.T) {
	a, err := task.New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	p := a.(task.Phased)
	client, err := NewClient(2, 8, 4, ldprand.NewSplitMix64(9))
	if err != nil {
		t.Fatal(err)
	}
	driveRound(t, a, client, []uint64{5}, 10)
	if err := p.Advance(); err != nil {
		t.Fatal(err)
	}
	for _, round := range []int{0, 2, 3} {
		raw, err := client.Report(5, round)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Add(raw); !errors.Is(err, task.ErrWrongRound) {
			t.Fatalf("round %d against current 1: error %v, want ErrWrongRound", round, err)
		}
	}
	if a.Collected() != 10 {
		t.Fatalf("wrong-round reports were accumulated: collected %d", a.Collected())
	}
	// A mechanism mismatch is a plain validation error, not wrong-round.
	if err := a.Add(json.RawMessage(`{"mechanism":"OLH","value":3}`)); err == nil || errors.Is(err, task.ErrWrongRound) {
		t.Fatalf("foreign envelope error %v", err)
	}
}

// TestMergeMatchesSingleAggregator pins the sharding soundness
// property: reports split across aggregators and merged advance to
// exactly the frontier a single aggregator reaches.
func TestMergeMatchesSingleAggregator(t *testing.T) {
	single, _ := task.New(cfg())
	a, _ := task.New(cfg())
	b, _ := task.New(cfg())
	client, err := NewClient(2, 8, 4, ldprand.NewSplitMix64(11))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 300; i++ {
			raw, err := client.Report(uint64(i%7)*31, round)
			if err != nil {
				t.Fatal(err)
			}
			if err := single.Add(raw); err != nil {
				t.Fatal(err)
			}
			dst := a
			if i%2 == 1 {
				dst = b
			}
			if err := dst.Add(raw); err != nil {
				t.Fatal(err)
			}
		}
		if err := single.(task.Phased).Advance(); err != nil {
			t.Fatal(err)
		}
		// Merge the split pair into a fresh aggregator, advance it, and
		// redistribute — exactly the sharded round boundary.
		merged, _ := task.New(cfg())
		if err := merged.Merge(a); err != nil {
			t.Fatal(err)
		}
		if err := merged.Merge(b); err != nil {
			t.Fatal(err)
		}
		if err := merged.(task.Phased).Advance(); err != nil {
			t.Fatal(err)
		}
		ms, err := merged.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if err := a.UnmarshalState(ms); err != nil {
			t.Fatal(err)
		}
		if err := b.(task.Phased).AdoptPhase(merged); err != nil {
			t.Fatal(err)
		}
		wantF, err := single.(task.Phased).Frontier()
		if err != nil {
			t.Fatal(err)
		}
		gotF, err := merged.(task.Phased).Frontier()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantF, gotF) {
			t.Fatalf("round %d frontier diverged:\n%s\n%s", round, wantF, gotF)
		}
	}
	if a.Collected()+b.Collected() != single.Collected() {
		t.Fatalf("split collected %d+%d, single %d", a.Collected(), b.Collected(), single.Collected())
	}
}

// TestMergeAcrossRoundsRefused pins that desynced aggregators refuse
// to merge rather than pooling reports across rounds.
func TestMergeAcrossRoundsRefused(t *testing.T) {
	a, _ := task.New(cfg())
	b, _ := task.New(cfg())
	client, err := NewClient(2, 8, 4, ldprand.NewSplitMix64(13))
	if err != nil {
		t.Fatal(err)
	}
	driveRound(t, a, client, []uint64{1}, 5)
	driveRound(t, b, client, []uint64{1}, 5)
	if err := a.(task.Phased).Advance(); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); !errors.Is(err, task.ErrWrongRound) {
		t.Fatalf("cross-round merge error %v, want ErrWrongRound", err)
	}
}

// TestStateRoundTripsMidRound pins the checkpoint contract at the
// adapter level: a mid-round state restores bit-identically (frontier,
// estimate, counters) and the restored protocol finishes correctly.
func TestStateRoundTripsMidRound(t *testing.T) {
	a, _ := task.New(cfg())
	client, err := NewClient(2, 8, 4, ldprand.NewSplitMix64(17))
	if err != nil {
		t.Fatal(err)
	}
	driveRound(t, a, client, []uint64{0xAB, 0x17, 0x30}, 200)
	if err := a.(task.Phased).Advance(); err != nil {
		t.Fatal(err)
	}
	driveRound(t, a, client, []uint64{0xAB, 0x17, 0x30}, 120) // round 1, mid-flight
	blob, err := a.MarshalState()
	if err != nil {
		t.Fatal(err)
	}

	b, _ := task.New(cfg())
	if err := b.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	fa, _ := a.(task.Phased).Frontier()
	fb, _ := b.(task.Phased).Frontier()
	if !bytes.Equal(fa, fb) {
		t.Fatalf("frontier changed across state round trip:\n%s\n%s", fa, fb)
	}
	ea, _ := a.Estimate(nil)
	eb, _ := b.Estimate(nil)
	if !bytes.Equal(ea, eb) {
		t.Fatalf("estimate changed across state round trip:\n%s\n%s", ea, eb)
	}
	if b.Collected() != a.Collected() || b.(task.Phased).RoundReports() != 120 {
		t.Fatalf("restored counters: collected %d round %d", b.Collected(), b.(task.Phased).RoundReports())
	}

	// A state with different parameters must be refused unchanged.
	other, _ := task.New(task.Config{Task: task.TypeHH, Epsilon: 2, Bits: 8, Levels: 2, K: 3})
	if err := other.UnmarshalState(blob); err == nil {
		t.Fatal("state restored across mismatched parameters")
	}

	// Corrupt phase invariants are refused: done must track the final
	// round exactly, and a completed state carries no reports.
	for _, corrupt := range []func(*stateFields){
		func(f *stateFields) { f.round = f.levels },               // round==levels but not done
		func(f *stateFields) { f.done = true },                    // done mid-protocol
		func(f *stateFields) { f.round, f.done = f.levels, true }, // done with in-flight reports
	} {
		f := decodeFields(t, blob)
		corrupt(&f)
		fresh, _ := task.New(cfg())
		if err := fresh.UnmarshalState(f.encode()); err == nil {
			t.Fatalf("corrupt state %+v restored without error", f)
		}
	}
}

// TestConfigValidation pins creation-time rejection of malformed and
// explosive configurations.
func TestConfigValidation(t *testing.T) {
	bad := []task.Config{
		{Task: task.TypeHH, Epsilon: 0, Bits: 8, Levels: 4, K: 3},
		{Task: task.TypeHH, Epsilon: 1, Bits: 0, Levels: 1, K: 3},
		{Task: task.TypeHH, Epsilon: 1, Bits: 8, Levels: 9, K: 3},
		{Task: task.TypeHH, Epsilon: 1, Bits: 8, Levels: 4, K: 0},
		{Task: task.TypeHH, Mechanism: "SFP", Epsilon: 1, Bits: 8, Levels: 4, K: 3},
		// Candidate blow-up: round 0 would enumerate 2^30 prefixes.
		{Task: task.TypeHH, Epsilon: 1, Bits: 60, Levels: 2, K: 3},
		// Shift overflow: 1<<63 wraps negative, and an unguarded
		// comparison would accept this and panic at the first Advance.
		{Task: task.TypeHH, Epsilon: 1, Bits: 63, Levels: 1, K: 1},
	}
	for _, c := range bad {
		if _, err := task.New(c); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	// An empty mechanism means PEM.
	a, err := task.New(task.Config{Task: task.TypeHH, Epsilon: 1, Bits: 8, Levels: 4, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.ReportBits() <= 64 {
		t.Fatalf("report bits %d", a.ReportBits())
	}
}

// TestServedCountUnbiased checks the served protocol's final count
// against the truth: over many runs under fresh client randomness, the
// population-scaled count of a planted value has mean z-score near 0
// and variance within [0.8, 1.25] of the analytic one. The final
// round's n_r reporters alone score the finalists, and Advance scales
// that count by n/n_r, so the truth is the planted value's holders
// among them (n_v) times n/n_r. Under a random hash seed a holder
// supports the value with probability p = e^ε/(e^ε+g−1) and anyone
// else with q = 1/g, so the variance is
// (n/n_r)² · (n_v·p(1−p) + (n_r−n_v)·q(1−q)) / (p−q)².
func TestServedCountUnbiased(t *testing.T) {
	const (
		eps     = 2.0
		bits    = 8
		levels  = 2
		n       = 600
		planted = 0xC4
		trials  = 400
	)
	values := make([]uint64, n)
	src := ldprand.NewSplitMix64(19)
	for i := range values {
		values[i] = uint64(ldprand.Intn(src, 1<<bits))
		if i%3 == 0 {
			values[i] = planted
		}
	}
	nr, nv := 0, 0 // the final round's reporters, and the holders among them
	for _, v := range values[(levels-1)*n/levels:] {
		nr++
		if v == planted {
			nv++
		}
	}
	scale := float64(n) / float64(nr)
	g := float64(heavyhitters.NewLHMech(eps).G())
	p, q := math.Exp(eps)/(math.Exp(eps)+g-1), 1/g
	truth := float64(nv) * scale
	sd := scale * math.Sqrt(float64(nv)*p*(1-p)+float64(nr-nv)*q*(1-q)) / (p - q)

	var sum, sq float64
	for trial := uint64(0); trial < trials; trial++ {
		a, err := task.New(task.Config{Task: task.TypeHH, Mechanism: MechanismPEM,
			Epsilon: eps, Bits: bits, Levels: levels, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		client, err := NewClient(eps, bits, levels, ldprand.NewSplitMix64(trial))
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < levels; round++ {
			for _, v := range values[round*n/levels : (round+1)*n/levels] {
				raw, err := client.Report(v, round)
				if err != nil {
					t.Fatal(err)
				}
				if err := a.Add(raw); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.(task.Phased).Advance(); err != nil {
				t.Fatal(err)
			}
		}
		count := math.NaN()
		for _, h := range a.(*Aggregator).hits {
			if h.Value == planted {
				count = h.Count
			}
		}
		if math.IsNaN(count) {
			t.Fatalf("trial %d: planted value missing from hits %v", trial, a.(*Aggregator).hits)
		}
		z := (count - truth) / sd
		sum += z
		sq += z * z
	}
	mean := sum / trials
	ratio := (sq - trials*mean*mean) / (trials - 1)
	t.Logf("mean z %.3f, variance ratio %.3f", mean, ratio)
	if math.Abs(mean) > 3/math.Sqrt(trials) {
		t.Errorf("mean z-score %.3f over %d trials, want |z| ≤ %.3f", mean, trials, 3/math.Sqrt(trials))
	}
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("empirical/analytic variance %.3f, want within [0.8, 1.25]", ratio)
	}
}

// TestFrontierShape pins the published wire schema round over round.
func TestFrontierShape(t *testing.T) {
	a, _ := task.New(cfg())
	p := a.(task.Phased)
	raw, err := p.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	var f Frontier
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.Round != 0 || f.Done || f.PrefixLen != 2 || f.Bits != 8 || f.Levels != 4 || len(f.Prefixes) != 0 {
		t.Fatalf("round-0 frontier %+v", f)
	}
	client, err := NewClient(f.Epsilon, f.Bits, f.Levels, ldprand.NewSplitMix64(23))
	if err != nil {
		t.Fatal(err)
	}
	driveRound(t, a, client, []uint64{0xF0}, 50)
	if err := p.Advance(); err != nil {
		t.Fatal(err)
	}
	raw, _ = p.Frontier()
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.Round != 1 || f.PrefixLen != 4 || f.PrefixBits != 2 || len(f.Prefixes) != 4 {
		t.Fatalf("round-1 frontier %+v", f)
	}
	// 2·K=6 budget over 4 round-0 candidates keeps all 4; the reported
	// prefixes must be 2-bit values.
	for _, s := range f.Prefixes {
		if s.Value > 3 {
			t.Fatalf("round-1 prefix %d not a 2-bit value", s.Value)
		}
	}
}

// TestAdvanceEmptyRound pins that an empty round advances instead of
// wedging the protocol.
func TestAdvanceEmptyRound(t *testing.T) {
	a, _ := task.New(cfg())
	p := a.(task.Phased)
	for i := 0; i < 4; i++ {
		if err := p.Advance(); err != nil {
			t.Fatalf("empty advance %d: %v", i, err)
		}
	}
	if !p.Done() {
		t.Fatal("not done after all rounds")
	}
	raw, err := a.Estimate(nil)
	if err != nil {
		t.Fatal(err)
	}
	var res EstimateResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 0 {
		t.Fatalf("empty protocol produced hits %+v", res.Hits)
	}
}

// TestEstimateTopValidation pins the ?top= query contract.
func TestEstimateTopValidation(t *testing.T) {
	a, _ := task.New(cfg())
	for _, bad := range []string{"0", "-1", "x"} {
		if _, err := a.Estimate(url.Values{"top": {bad}}); err == nil {
			t.Errorf("top=%s accepted", bad)
		}
	}
}
