package cmstask_test

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/binenc"
	"repro/internal/cms"
	"repro/internal/ldprand"
	"repro/internal/task"
	"repro/internal/task/cmstask"
)

func sketchCfg(mech string) task.Config {
	return task.Config{Task: task.TypeSketch, Mechanism: mech, Epsilon: 2, Width: 64, Hashes: 8, SketchSeed: 42}
}

func cmsParams() cms.Params {
	return cms.Params{Epsilon: 2, Width: 64, Hashes: 8, Seed: 42}
}

// items returns a deterministic stream of n items over a small
// vocabulary (so counts accumulate).
func items(n int, seed uint64) [][]byte {
	src := ldprand.NewSplitMix64(seed)
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("word-%d", ldprand.Intn(src, 10)))
	}
	return out
}

func estimate(t *testing.T, a task.Aggregator, names ...string) cmstask.EstimateResult {
	t.Helper()
	raw, err := a.Estimate(url.Values{"item": names})
	if err != nil {
		t.Fatal(err)
	}
	var res cmstask.EstimateResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAdapterMatchesCMSServer is the fidelity claim: the task adapter
// folding client reports into its count-min backing must produce
// exactly the estimates cms.Server produces from the same reports —
// same debiasing, same hash positions, bit for bit.
func TestAdapterMatchesCMSServer(t *testing.T) {
	server, err := cms.NewServer(cmsParams())
	if err != nil {
		t.Fatal(err)
	}
	a, err := cmstask.New(sketchCfg("CMS"))
	if err != nil {
		t.Fatal(err)
	}
	client, err := cms.NewClient(cmsParams(), ldprand.NewSplitMix64(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items(3000, 2) {
		r := client.Report(it)
		if err := server.Add(r); err != nil {
			t.Fatal(err)
		}
		env := cmstask.Envelope{Mechanism: "CMS", Row: r.Row, Bits: b64(r.Bits)}
		raw, _ := json.Marshal(env)
		if err := a.Add(raw); err != nil {
			t.Fatal(err)
		}
	}
	if a.Collected() != server.Collected() {
		t.Fatalf("collected %d want %d", a.Collected(), server.Collected())
	}
	for _, name := range []string{"word-0", "word-3", "word-9", "absent"} {
		want := server.Estimate([]byte(name))
		got := estimate(t, a, name).Items[0].Count
		if got != want {
			t.Fatalf("%s: adapter %v, cms.Server %v", name, got, want)
		}
	}
}

// TestAdapterMatchesHCMSServer: same fidelity claim for the one-bit
// Hadamard variant, including the spectrum inversion at estimate time.
func TestAdapterMatchesHCMSServer(t *testing.T) {
	server, err := cms.NewHadamardServer(cmsParams())
	if err != nil {
		t.Fatal(err)
	}
	a, err := cmstask.New(sketchCfg("HCMS"))
	if err != nil {
		t.Fatal(err)
	}
	client, err := cms.NewHadamardClient(cmsParams(), ldprand.NewSplitMix64(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items(5000, 4) {
		r := client.Report(it)
		if err := server.Add(r); err != nil {
			t.Fatal(err)
		}
		env := cmstask.Envelope{Mechanism: "HCMS", Row: r.Row, Index: r.Index, Sign: r.Sign}
		raw, _ := json.Marshal(env)
		if err := a.Add(raw); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"word-1", "word-7", "missing"} {
		want := server.Estimate([]byte(name))
		got := estimate(t, a, name).Items[0].Count
		if got != want {
			t.Fatalf("%s: adapter %v, cms.HadamardServer %v", name, got, want)
		}
	}
}

// TestClientReportsAggregate checks the adapter's own client half
// produces envelopes the aggregator accepts, and the frequent item
// estimates higher than an absent one.
func TestClientReportsAggregate(t *testing.T) {
	for _, mech := range cmstask.Mechanisms() {
		mech := mech
		t.Run(mech, func(t *testing.T) {
			a, err := cmstask.New(sketchCfg(mech))
			if err != nil {
				t.Fatal(err)
			}
			client, err := cmstask.NewClient(sketchCfg(mech), ldprand.NewSplitMix64(5))
			if err != nil {
				t.Fatal(err)
			}
			const n = 4000
			for i := 0; i < n; i++ {
				raw, err := client.Report([]byte("hot"))
				if err != nil {
					t.Fatal(err)
				}
				if err := a.Add(raw); err != nil {
					t.Fatal(err)
				}
			}
			if a.Collected() != n {
				t.Fatalf("collected %d want %d", a.Collected(), n)
			}
			res := estimate(t, a, "hot", "cold")
			if len(res.Items) != 2 || res.Width != 64 || res.Hashes != 8 {
				t.Fatalf("estimate %+v", res)
			}
			hot, cold := res.Items[0].Count, res.Items[1].Count
			if hot < 0.8*n || hot > 1.2*n {
				t.Fatalf("hot estimate %v, want near %d", hot, n)
			}
			if cold > 0.2*n {
				t.Fatalf("cold estimate %v, want near 0", cold)
			}
		})
	}
}

// TestMergeAndStateRoundTrip pins exact mergeability and the
// checkpoint contract for both mechanisms.
func TestMergeAndStateRoundTrip(t *testing.T) {
	for _, mech := range cmstask.Mechanisms() {
		client, err := cmstask.NewClient(sketchCfg(mech), ldprand.NewSplitMix64(6))
		if err != nil {
			t.Fatal(err)
		}
		whole, _ := cmstask.New(sketchCfg(mech))
		left, _ := cmstask.New(sketchCfg(mech))
		right, _ := cmstask.New(sketchCfg(mech))
		for i, it := range items(1000, 7) {
			raw, err := client.Report(it)
			if err != nil {
				t.Fatal(err)
			}
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
		queries := []string{"word-0", "word-5", "word-9"}
		// Splitting the stream reorders the float additions, so the
		// merged estimate matches sequential up to rounding only.
		got, want := estimate(t, left, queries...), estimate(t, whole, queries...)
		for i := range want.Items {
			if diff := math.Abs(got.Items[i].Count - want.Items[i].Count); diff > 1e-6 {
				t.Fatalf("%s: %s merged %v sequential %v", mech, want.Items[i].Item, got.Items[i].Count, want.Items[i].Count)
			}
		}

		blob, err := whole.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		back, _ := cmstask.New(sketchCfg(mech))
		if err := back.UnmarshalState(blob); err != nil {
			t.Fatal(err)
		}
		if back.Collected() != whole.Collected() ||
			!reflect.DeepEqual(estimate(t, back, queries...), estimate(t, whole, queries...)) {
			t.Fatalf("%s: state round trip drifted", mech)
		}

		// Mismatched parameters are refused.
		otherCfg := sketchCfg(mech)
		otherCfg.SketchSeed = 999
		other, _ := cmstask.New(otherCfg)
		if err := other.UnmarshalState(blob); err == nil {
			t.Fatalf("%s: state restored onto mismatched seed", mech)
		}
	}
}

// TestLegacyStateFixtures is the frozen half of the compatibility
// contract for the adapter's own {mechanism, epsilon, sketch} wrapper:
// testdata/state_<mechanism>.bin is the state of one 200-report
// aggregate as an older build wrote it, at commit 5a353ae. It must
// still restore, to that aggregate, and this build must write that
// aggregate as exactly those bytes. Re-wrapping the fixture's sketch
// under forged guard fields pins the wrapper's refusals, each leaving
// the receiver byte for byte as it was.
func TestLegacyStateFixtures(t *testing.T) {
	for _, mech := range cmstask.Mechanisms() {
		golden, err := os.ReadFile(filepath.Join("testdata", "state_"+mech+".bin"))
		if err != nil {
			t.Fatal(err)
		}
		a, _ := cmstask.New(sketchCfg(mech))
		if err := a.UnmarshalState(golden); err != nil {
			t.Fatalf("%s: golden fixture refused: %v", mech, err)
		}
		if got, err := a.MarshalState(); err != nil || a.Collected() != 200 || !bytes.Equal(got, golden) {
			t.Errorf("%s: %d reports, MarshalState diverges from the golden bytes (%v)", mech, a.Collected(), err)
		}

		r := binenc.NewReader(golden)
		version, _, epsilon, sketch := r.Byte(), r.String(), r.Float64(), r.Blob()
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
		wrap := func(version byte, mechanism string, epsilon float64, sketch []byte) []byte {
			w := binenc.NewWriter()
			defer w.Release()
			w.Byte(version)
			w.String(mechanism)
			w.Float64(epsilon)
			w.Blob(sketch)
			return append([]byte(nil), w.Bytes()...)
		}
		if !bytes.Equal(wrap(version, mech, epsilon, sketch), golden) {
			t.Fatalf("%s: re-wrapping the fixture's fields does not reproduce it", mech)
		}
		other := cmstask.MechanismCMS
		if mech == other {
			other = cmstask.MechanismHCMS
		}
		poisoned := append([]byte(nil), sketch...)
		copy(poisoned[len(poisoned)-8:], []byte{0, 0, 0, 0, 0, 0, 0xF8, 0x7F}) // the population total becomes NaN
		for what, state := range map[string][]byte{
			"the other mechanism's name": wrap(version, other, epsilon, sketch),
			"another epsilon":            wrap(version, mech, epsilon+1, sketch),
			"an unknown wrapper version": wrap(version+1, mech, epsilon, sketch),
			"an unknown sketch version":  wrap(version, mech, epsilon, append([]byte{9}, sketch[1:]...)),
			"a NaN population total":     wrap(version, mech, epsilon, poisoned),
			"a truncated sketch":         wrap(version, mech, epsilon, sketch[:len(sketch)/2]),
		} {
			if err := a.UnmarshalState(state); err == nil {
				t.Errorf("%s: state with %s accepted", mech, what)
			}
			if after, err := a.MarshalState(); err != nil || !bytes.Equal(after, golden) {
				t.Errorf("%s: refused state with %s mutated the receiver (%v)", mech, what, err)
			}
		}
		// The other mechanism's aggregator refuses this one's fixture.
		wrong, _ := cmstask.New(sketchCfg(other))
		if wrong.UnmarshalState(golden) == nil {
			t.Errorf("%s state restored onto a %s aggregator", mech, other)
		}
	}
}

// TestAddRejectsMalformed pins the network-input validation.
func TestAddRejectsMalformed(t *testing.T) {
	a, err := cmstask.New(sketchCfg("CMS"))
	if err != nil {
		t.Fatal(err)
	}
	short := b64(make([]byte, 3))
	badBit := make([]byte, 64)
	badBit[5] = 7
	for _, raw := range []string{
		`not json`,
		`{"mechanism":"HCMS","row":0,"index":0,"sign":1}`,
		`{"mechanism":"CMS","row":99,"bits":"` + b64(make([]byte, 64)) + `"}`,
		`{"mechanism":"CMS","row":0,"bits":"***"}`,
		`{"mechanism":"CMS","row":0,"bits":"` + short + `"}`,
		`{"mechanism":"CMS","row":0,"bits":"` + b64(badBit) + `"}`,
	} {
		if err := a.Add(json.RawMessage(raw)); err == nil {
			t.Errorf("malformed CMS report accepted: %s", raw)
		}
	}
	h, err := cmstask.New(sketchCfg("HCMS"))
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range []string{
		`{"mechanism":"HCMS","row":0,"index":64,"sign":1}`,
		`{"mechanism":"HCMS","row":0,"index":0,"sign":0}`,
		`{"mechanism":"HCMS","row":-1,"index":0,"sign":1}`,
	} {
		if err := h.Add(json.RawMessage(raw)); err == nil {
			t.Errorf("malformed HCMS report accepted: %s", raw)
		}
	}
	if a.Collected() != 0 || h.Collected() != 0 {
		t.Fatal("rejected reports were counted")
	}
}

func b64(b []byte) string {
	return base64.StdEncoding.EncodeToString(b)
}
