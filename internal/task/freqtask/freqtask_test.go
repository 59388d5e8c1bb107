package freqtask_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/binenc"
	"repro/internal/ldprand"
	"repro/internal/task"
	"repro/internal/task/freqtask"
)

func cfg(mech string) task.Config {
	return task.Config{Task: task.TypeFreq, Mechanism: mech, Epsilon: 2, Domain: 8}
}

// envelopes privatizes n deterministic values through one oracle.
func envelopes(t *testing.T, mech string, n int, seed uint64) []json.RawMessage {
	t.Helper()
	o, err := freqtask.NewOracle(mech, 2, 8, ldprand.NewSplitMix64(seed))
	if err != nil {
		t.Fatal(err)
	}
	src := ldprand.NewSplitMix64(seed + 1)
	out := make([]json.RawMessage, n)
	for i := range out {
		env, err := freqtask.Privatize(o, ldprand.Intn(src, 8))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = raw
	}
	return out
}

// counts reads the debiased count estimates out of a freq aggregator.
func counts(t *testing.T, a task.Aggregator) []float64 {
	t.Helper()
	raw, err := a.Estimate(nil)
	if err != nil {
		t.Fatal(err)
	}
	var res freqtask.EstimateResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	return res.Counts
}

// TestAdapterMatchesDirectOracle is the behavior-identity claim of the
// port: an envelope stream folded through the task adapter must leave
// bit-identical state and estimates to a bare oracle that privatized
// and aggregated the same values from the same random draws (the
// client's seed), for every mechanism.
func TestAdapterMatchesDirectOracle(t *testing.T) {
	for _, mech := range freqtask.Mechanisms() {
		mech := mech
		t.Run(mech, func(t *testing.T) {
			raws := envelopes(t, mech, 400, 11)

			direct, err := freqtask.NewOracle(mech, 2, 8, ldprand.NewSplitMix64(11))
			if err != nil {
				t.Fatal(err)
			}
			values := ldprand.NewSplitMix64(12)
			for range raws {
				direct.Collect(ldprand.Intn(values, 8))
			}

			a, err := freqtask.New(cfg(mech))
			if err != nil {
				t.Fatal(err)
			}
			for _, raw := range raws {
				if err := a.Add(raw); err != nil {
					t.Fatal(err)
				}
			}

			if a.Collected() != direct.Collected() {
				t.Fatalf("collected %d want %d", a.Collected(), direct.Collected())
			}
			got, want := counts(t, a), direct.EstimateCounts()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("adapter estimates differ from direct oracle:\n%v\n%v", got, want)
			}
			blob, err := a.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if directBlob, err := direct.MarshalState(); err != nil || !bytes.Equal(blob, directBlob) {
				t.Fatalf("adapter state differs from direct oracle's (%v)", err)
			}

			// And the state blob round-trips bit-identically through a
			// fresh adapter — the checkpoint contract.
			b, err := freqtask.New(cfg(mech))
			if err != nil {
				t.Fatal(err)
			}
			if err := b.UnmarshalState(blob); err != nil {
				t.Fatal(err)
			}
			if got2 := counts(t, b); !reflect.DeepEqual(got2, want) {
				t.Fatalf("restored estimates differ")
			}
		})
	}
}

// TestAdapterRestoresPreTaskOracleState pins that the adapter adds no
// wrapper of its own: a state blob written by a bare oracle restores
// through it bit-identically — one marshalled here, and the frozen
// internal/freq fixture an older build's bare oracle wrote, which must
// re-marshal to itself.
func TestAdapterRestoresPreTaskOracleState(t *testing.T) {
	o, err := freqtask.NewOracle("OLH", 2, 8, ldprand.NewSplitMix64(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		o.Collect(i % 8)
	}
	blob, err := o.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	a, err := freqtask.New(cfg("OLH"))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	if a.Collected() != 300 {
		t.Fatalf("collected %d want 300", a.Collected())
	}
	if !reflect.DeepEqual(counts(t, a), o.EstimateCounts()) {
		t.Fatal("bare oracle state restored with different estimates")
	}

	golden, err := os.ReadFile(filepath.Join("..", "..", "freq", "testdata", "state_OLH.bin"))
	if err != nil {
		t.Fatal(err)
	}
	old, err := freqtask.New(task.Config{Task: task.TypeFreq, Mechanism: "OLH", Epsilon: 1.25, Domain: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := old.UnmarshalState(golden); err != nil {
		t.Fatalf("bare oracle fixture refused: %v", err)
	}
	if got, err := old.MarshalState(); err != nil || !bytes.Equal(got, golden) {
		t.Fatalf("bare oracle fixture re-marshals to %x (%v), golden %x", got, err, golden)
	}
}

// TestMergeMatchesSequential pins exact mergeability through the
// adapter: split a stream across two aggregators, merge, compare to
// one aggregator absorbing everything.
func TestMergeMatchesSequential(t *testing.T) {
	raws := envelopes(t, "OUE", 400, 17)
	whole, _ := freqtask.New(cfg("OUE"))
	left, _ := freqtask.New(cfg("OUE"))
	right, _ := freqtask.New(cfg("OUE"))
	for i, raw := range raws {
		if err := whole.Add(raw); err != nil {
			t.Fatal(err)
		}
		half := left
		if i%2 == 1 {
			half = right
		}
		if err := half.Add(raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := left.Merge(right.Snapshot()); err != nil {
		t.Fatal(err)
	}
	a, b := counts(t, left), counts(t, whole)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("merged estimates differ:\n%v\n%v", a, b)
	}
}

func TestEstimatePayloadAndTopK(t *testing.T) {
	a, err := freqtask.New(cfg("GRR"))
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic aggregate: value 3 dominates.
	for i := 0; i < 50; i++ {
		if err := a.Add(json.RawMessage(`{"mechanism":"GRR","value":3}`)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := a.Add(json.RawMessage(`{"mechanism":"GRR","value":5}`)); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := a.Estimate(url.Values{"top": []string{"2"}})
	if err != nil {
		t.Fatal(err)
	}
	var res freqtask.EstimateResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Domain != 8 || len(res.Counts) != 8 || res.Mechanism != "GRR" {
		t.Fatalf("estimate %+v", res)
	}
	if len(res.Top) != 2 || res.Top[0].Value != 3 || res.Top[1].Value != 5 {
		t.Fatalf("top-k %+v", res.Top)
	}
	// Oversized k clamps; bad k errors.
	raw, err = a.Estimate(url.Values{"top": []string{"100"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Top) != 8 {
		t.Fatalf("clamped top-k has %d entries", len(res.Top))
	}
	if _, err := a.Estimate(url.Values{"top": []string{"zero"}}); err == nil {
		t.Fatal("non-numeric top accepted")
	}
	if _, err := a.Estimate(url.Values{"top": []string{"0"}}); err == nil {
		t.Fatal("top=0 accepted")
	}
}

func TestAddRejectsMalformed(t *testing.T) {
	a, err := freqtask.New(cfg("GRR"))
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range []string{
		`not json`,
		`42`,
		`{"mechanism":"OLH","value":1}`,
		`{"mechanism":"GRR","value":99}`,
	} {
		if err := a.Add(json.RawMessage(raw)); err == nil {
			t.Errorf("malformed report accepted: %s", raw)
		}
	}
	if a.Collected() != 0 {
		t.Fatalf("rejected reports counted: %d", a.Collected())
	}
}

// hrrBinary lays out a binary HRR envelope with an arbitrary sign, as
// PrivatizeBinary would for sign ±1.
func hrrBinary(index, sign int64) []byte {
	w := binenc.NewWriter()
	defer w.Release()
	w.Byte(0) // envelope layout version
	w.String(freqtask.MechanismHRR)
	w.Varint(index)
	w.Varint(sign)
	return append([]byte(nil), w.Bytes()...)
}

// TestHRRSignRefusedOnBothWires: a report's HRR sign is ±1 on both
// wires. The binary decoder judges the varint before narrowing it, so
// −255 and 257, which would wrap to an int8 1, are refused there, as
// JSON envelopes carrying them are (Translate cannot fit them in the
// int8 field).
func TestHRRSignRefusedOnBothWires(t *testing.T) {
	a, err := freqtask.New(cfg(freqtask.MechanismHRR))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sign int64
		ok   bool
	}{{1, true}, {-1, true}, {0, false}, {-255, false}, {257, false}} {
		jsonErr := a.Add(json.RawMessage(fmt.Sprintf(`{"mechanism":"HRR","value":3,"sign":%d}`, c.sign)))
		_, binErr := a.(task.BinaryReporter).PrepareBinary(hrrBinary(3, c.sign))
		if (jsonErr == nil) != c.ok || (binErr == nil) != c.ok {
			t.Errorf("sign %d: JSON error %v, binary error %v; want accepted=%v on both", c.sign, jsonErr, binErr, c.ok)
		}
	}
}

// TestFoldAllocs pins the binary ingest of one OLH report — the
// serving path's O(d) fold — at two allocations (the mechanism string
// and the boxed report), none of them in the fold.
func TestFoldAllocs(t *testing.T) {
	o, err := freqtask.NewOracle("OLH", 2, 1024, ldprand.NewSplitMix64(1))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := freqtask.PrivatizeBinary(o, 3)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := freqtask.New(task.Config{Task: task.TypeFreq, Mechanism: "OLH", Epsilon: 2, Domain: 1024})
	if err != nil {
		t.Fatal(err)
	}
	a := agg.(task.BinaryReporter)
	allocs := testing.AllocsPerRun(100, func() {
		prepared, err := a.PrepareBinary(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Fold(prepared); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("PrepareBinary+Fold: %v allocs per OLH report, want at most 2", allocs)
	}
}
