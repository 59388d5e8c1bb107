package meantask_test

// Native fuzzing for the two report decoders. PrepareBinary faces
// binary envelopes from the network: truncated, bit-flipped,
// wrong-mechanism, non-finite values, coordinates out of range. It
// either yields a report the aggregator folds cleanly or refuses
// loudly — never panics. Translate faces any JSON body a client sends:
// it refuses, or PrepareBinary decides what it wrote. Both mechanisms'
// decoders run against every input.

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/binenc"
	"repro/internal/ldprand"
	"repro/internal/task"
	"repro/internal/task/meantask"
)

func fuzzCfgs() []task.Config { return []task.Config{duchiCfg(), harmonyCfg(3)} }

// meanBinary lays out a binary mean envelope by hand, for the values no
// client writes.
func meanBinary(mech string, coord int, value float64) []byte {
	var w binenc.Writer
	w.Byte(0) // envelope layout version
	w.String(mech)
	w.Varint(int64(coord))
	w.Float64(value)
	return w.Bytes()
}

// foldOrRefuse is the contract for one binary payload: PrepareBinary
// refuses it, or the aggregator folds it cleanly and its estimate stays
// finite.
func foldOrRefuse(t *testing.T, cfg task.Config, a task.Aggregator, payload []byte) {
	t.Helper()
	prepared, err := a.PrepareBinary(payload)
	if err != nil {
		return // refused loudly: the acceptable failure mode
	}
	if err := a.Fold(prepared); err != nil {
		t.Fatalf("%s: accepted envelope failed to fold: %v", cfg.Mechanism, err)
	}
	if _, err := a.MarshalState(); err != nil {
		t.Fatalf("%s: state does not marshal after fold: %v", cfg.Mechanism, err)
	}
	for _, m := range estimate(t, a).Means {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			t.Fatalf("%s: accepted envelope made the mean %v", cfg.Mechanism, m)
		}
	}
}

func FuzzBinaryEnvelope(f *testing.F) {
	// Seed with client envelopes of each mechanism, so mutation starts
	// from each accepted layout, and the boundaries PrepareBinary must
	// refuse: a NaN value and a harmony coordinate equal to dim.
	var harmonyValue float64
	for i, cfg := range fuzzCfgs() {
		c, err := meantask.NewClient(cfg, ldprand.NewSplitMix64(uint64(i)+1))
		if err != nil {
			f.Fatal(err)
		}
		x := make([]float64, c.Dim())
		x[0] = 0.3
		env, err := c.ReportBinary(x)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(env)
		f.Add(env[:len(env)/2]) // torn mid-envelope
		raw, err := c.Report(x)
		if err != nil {
			f.Fatal(err)
		}
		var e meantask.Envelope
		if err := json.Unmarshal(raw, &e); err != nil {
			f.Fatal(err)
		}
		harmonyValue = e.Value
	}
	f.Add(meanBinary(meantask.MechanismDuchi, 0, math.NaN()))
	f.Add(meanBinary(meantask.MechanismHarmony, 0, math.Inf(-1)))
	f.Add(meanBinary(meantask.MechanismHarmony, 3, harmonyValue)) // coord = dim
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range fuzzCfgs() {
			a, err := meantask.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			foldOrRefuse(t, cfg, a, data)
		}
	})
}

func FuzzTranslate(f *testing.F) {
	// Seed with one client envelope per mechanism, and shapes only JSON
	// can take.
	for i, cfg := range fuzzCfgs() {
		c, err := meantask.NewClient(cfg, ldprand.NewSplitMix64(uint64(i)+1))
		if err != nil {
			f.Fatal(err)
		}
		raw, err := c.Report(make([]float64, c.Dim()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(raw))
	}
	for _, raw := range []string{
		`{"mechanism":"duchi","value":1e999}`,
		`{"mechanism":"harmony","coord":-1,"value":6.49}`,
		`{"mechanism":["duchi"],"value":1}`,
		`null`,
		`not json`,
	} {
		f.Add([]byte(raw))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range fuzzCfgs() {
			a, err := meantask.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var w binenc.Writer
			if err := a.Translate(&w, data); err != nil {
				continue // refused loudly: the acceptable failure mode
			}
			foldOrRefuse(t, cfg, a, w.Bytes())
		}
	})
}
