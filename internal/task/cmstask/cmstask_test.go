package cmstask_test

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/binenc"
	"repro/internal/ldprand"
	"repro/internal/task"
	"repro/internal/task/cmstask"
)

func sketchCfg(mech string) task.Config {
	return task.Config{Task: task.TypeSketch, Mechanism: mech, Epsilon: 2, Width: 64, Hashes: 8, SketchSeed: 42}
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

// cmsVariance is the analytic variance of the served count-mean
// estimate of item d, over the clients' randomness and the hash seed.
// counts[x] is the number of users holding item x and nd the number
// holding d. Each user adds Y to the row mean at d's position, with
// E[Y | row] = 1 when its item shares d's cell in the row it picked.
// Its collision rate q over the k rows is Binomial(k, 1/m)/k, so
// E[q] = 1/m and Var(q) = (1−1/m)/(k·m). Per user:
//
//	CMS:  Var(Y) = (c²−1)/4 + q(1−q)   (c = c_{ε/2}, the ±1 coordinate noise)
//	HCMS: Var(Y) = c² − q²             (Y = ±c always, c = c_ε)
//
// Averaged over hash seeds, that is (c²−1)/4 + 1/m − 1/m² − Var(q) and
// c² − 1/m² − Var(q) for x ≠ d, and (c²−1)/4 and c²−1 for x = d. The
// seed also moves every other item's mean contribution n_x·q_x, adding
// Σ_{x≠d} n_x²·Var(q). The estimate scales the sum by m/(m−1).
func cmsVariance(mech string, eps float64, m, k int, counts map[string]int, d string) float64 {
	mf, kf := float64(m), float64(k)
	varQ := (1 - 1/mf) / (kf * mf)
	var sum float64
	for _, x := range slices.Sorted(maps.Keys(counts)) {
		nx := counts[x]
		var perUser float64
		switch {
		case mech == cmstask.MechanismCMS:
			c := (math.Exp(eps/2) + 1) / (math.Exp(eps/2) - 1)
			perUser = (c*c - 1) / 4
			if x != d {
				perUser += 1/mf - 1/(mf*mf) - varQ
			}
		case x == d:
			c := (math.Exp(eps) + 1) / (math.Exp(eps) - 1)
			perUser = c*c - 1
		default:
			c := (math.Exp(eps) + 1) / (math.Exp(eps) - 1)
			perUser = c*c - 1/(mf*mf) - varQ
		}
		sum += float64(nx) * perUser
		if x != d {
			sum += float64(nx) * float64(nx) * varQ
		}
	}
	return mf * mf / ((mf - 1) * (mf - 1)) * sum
}

// TestServedEstimateUnbiased checks the served estimates against the
// truth rather than against another implementation: over many
// populations privatized under fresh client randomness and a fresh
// sketch seed, the estimates of a heavy item and of an absent one have
// mean z-score near 0 and variance within [0.8, 1.25] of cmsVariance.
// Leaving out the collision terms moves the absent item's ratio out of
// the band.
func TestServedEstimateUnbiased(t *testing.T) {
	const (
		eps    = 2.0
		width  = 32
		hashes = 8
		n      = 1000
		trials = 400
	)
	// A fixed population: "hot" holds 40 %, the rest spreads over 30
	// items.
	population := make([][]byte, n)
	counts := make(map[string]int)
	for i := range population {
		population[i] = []byte(fmt.Sprintf("word-%d", i%30))
		if i < 2*n/5 {
			population[i] = []byte("hot")
		}
		counts[string(population[i])]++
	}
	for _, mech := range cmstask.Mechanisms() {
		t.Run(mech, func(t *testing.T) {
			queries := []string{"hot", "absent"}
			z := make([][]float64, len(queries))
			for trial := uint64(0); trial < trials; trial++ {
				cfg := task.Config{Task: task.TypeSketch, Mechanism: mech, Epsilon: eps,
					Width: width, Hashes: hashes, SketchSeed: 1000 + trial}
				a, err := cmstask.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				client, err := cmstask.NewClient(cfg, ldprand.NewSplitMix64(trial))
				if err != nil {
					t.Fatal(err)
				}
				for _, it := range population {
					raw, err := client.ReportBinary(it)
					if err != nil {
						t.Fatal(err)
					}
					prepared, err := a.(task.BinaryReporter).PrepareBinary(raw)
					if err != nil {
						t.Fatal(err)
					}
					if err := a.Fold(prepared); err != nil {
						t.Fatal(err)
					}
				}
				for i, it := range estimate(t, a, queries...).Items {
					sd := math.Sqrt(cmsVariance(mech, eps, width, hashes, counts, it.Item))
					z[i] = append(z[i], (it.Count-float64(counts[it.Item]))/sd)
				}
			}
			for i, q := range queries {
				var mean, sq float64
				for _, v := range z[i] {
					mean += v
				}
				mean /= trials
				for _, v := range z[i] {
					sq += (v - mean) * (v - mean)
				}
				ratio := sq / (trials - 1)
				t.Logf("%s %s: mean z %.3f, variance ratio %.3f", mech, q, mean, ratio)
				if math.Abs(mean) > 3/math.Sqrt(trials) {
					t.Errorf("%s: mean z-score %.3f over %d trials, want |z| ≤ %.3f", q, mean, trials, 3/math.Sqrt(trials))
				}
				if ratio < 0.8 || ratio > 1.25 {
					t.Errorf("%s: empirical/analytic variance %.3f, want within [0.8, 1.25]", q, ratio)
				}
			}
		})
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

// hcmsBinary lays out a binary HCMS envelope with an arbitrary sign,
// as Client.ReportBinary would for sign ±1.
func hcmsBinary(row, index, sign int64) []byte {
	w := binenc.NewWriter()
	defer w.Release()
	w.Byte(0) // envelope layout version
	w.String(cmstask.MechanismHCMS)
	w.Varint(row)
	w.Varint(index)
	w.Varint(sign)
	return append([]byte(nil), w.Bytes()...)
}

// TestHCMSSignRefusedOnBothWires: a report's HCMS sign is ±1 on both
// wires. The binary decoder judges the varint before narrowing it, so
// 257 and −255, which would wrap to an int8 1, are refused there, as
// JSON envelopes carrying them are (Translate cannot fit them in the
// int8 field).
func TestHCMSSignRefusedOnBothWires(t *testing.T) {
	a, err := cmstask.New(sketchCfg(cmstask.MechanismHCMS))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sign int64
		ok   bool
	}{{1, true}, {-1, true}, {0, false}, {257, false}, {-255, false}} {
		jsonErr := a.Add(json.RawMessage(fmt.Sprintf(`{"mechanism":"HCMS","row":0,"index":3,"sign":%d}`, c.sign)))
		_, binErr := a.(task.BinaryReporter).PrepareBinary(hcmsBinary(0, 3, c.sign))
		if (jsonErr == nil) != c.ok || (binErr == nil) != c.ok {
			t.Errorf("sign %d: JSON error %v, binary error %v; want accepted=%v on both", c.sign, jsonErr, binErr, c.ok)
		}
	}
}

func b64(b []byte) string {
	return base64.StdEncoding.EncodeToString(b)
}
