package cmstask_test

// Native fuzzing for the two report decoders. PrepareBinary faces
// binary sketch reports from the network: it either yields a report
// the aggregator folds cleanly or refuses loudly — never panics, never
// over-allocates. Translate faces any JSON body a client sends: it
// refuses, or PrepareBinary decides what it wrote. Both mechanisms'
// decoders run against every input.

import (
	"testing"

	"repro/internal/binenc"
	"repro/internal/ldprand"
	"repro/internal/task"
	"repro/internal/task/cmstask"
)

func FuzzBinaryEnvelope(f *testing.F) {
	// Seed with one valid binary envelope per mechanism, so mutation
	// starts from each accepted layout.
	for i, mech := range cmstask.Mechanisms() {
		c, err := cmstask.NewClient(sketchCfg(mech), ldprand.NewSplitMix64(uint64(i)+1))
		if err != nil {
			f.Fatal(err)
		}
		env, err := c.ReportBinary([]byte("word-1"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(env)
	}
	// An HCMS sign of 257, which narrows to an int8 1: refused.
	f.Add(hcmsBinary(0, 3, 257))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mech := range cmstask.Mechanisms() {
			a, err := cmstask.New(sketchCfg(mech))
			if err != nil {
				t.Fatal(err)
			}
			foldOrRefuse(t, mech, a, data)
		}
	})
}

// foldOrRefuse is the contract for one binary payload: PrepareBinary
// refuses it, or the aggregator folds it cleanly.
func foldOrRefuse(t *testing.T, mech string, a task.Aggregator, payload []byte) {
	t.Helper()
	prepared, err := a.PrepareBinary(payload)
	if err != nil {
		return // refused loudly: the acceptable failure mode
	}
	if err := a.Fold(prepared); err != nil {
		t.Fatalf("%s: accepted envelope failed to fold: %v", mech, err)
	}
	if _, err := a.MarshalState(); err != nil {
		t.Fatalf("%s: state does not marshal after fold: %v", mech, err)
	}
}

func FuzzTranslate(f *testing.F) {
	// Seed with one client envelope per mechanism, and shapes only JSON
	// can take.
	for i, mech := range cmstask.Mechanisms() {
		c, err := cmstask.NewClient(sketchCfg(mech), ldprand.NewSplitMix64(uint64(i)+1))
		if err != nil {
			f.Fatal(err)
		}
		env, err := c.Report([]byte("word-1"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(env))
	}
	for _, raw := range []string{
		`{"mechanism":"HCMS","row":0,"index":3,"sign":300}`,
		`{"mechanism":"CMS","row":0,"bits":"AAECAw=="}`,
		`{"mechanism":"CMS","row":-1,"bits":""}`,
		`{"mechanism":"CMS","row":0,"bits":"%%%"}`,
		`null`,
		`not json`,
	} {
		f.Add([]byte(raw))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mech := range cmstask.Mechanisms() {
			a, err := cmstask.New(sketchCfg(mech))
			if err != nil {
				t.Fatal(err)
			}
			var w binenc.Writer
			if err := a.Translate(&w, data); err != nil {
				continue // refused loudly: the acceptable failure mode
			}
			foldOrRefuse(t, mech, a, w.Bytes())
		}
	})
}
