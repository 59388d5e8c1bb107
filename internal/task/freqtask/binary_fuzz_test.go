package freqtask_test

// Native fuzzing for the two report decoders. PrepareBinary faces
// binary envelopes from the network: truncated frames, flipped bits,
// wrong-mechanism headers, and length prefixes that lie. It either
// yields a report the oracle folds cleanly or refuses loudly — never
// panics, never over-allocates. Translate faces any JSON body a client
// sends: it refuses, or PrepareBinary decides what it wrote. Every
// mechanism's decoders run against every input, so cross-mechanism
// confusion is fuzzed too.

import (
	"encoding/json"
	"testing"

	"repro/internal/binenc"
	"repro/internal/ldprand"
	"repro/internal/task"
	"repro/internal/task/freqtask"
)

func FuzzBinaryEnvelope(f *testing.F) {
	mechs := freqtask.Mechanisms()
	// Seed with one valid binary envelope per mechanism, so mutation
	// starts from each accepted layout.
	for i, mech := range mechs {
		o, err := freqtask.NewOracle(mech, 2, 8, ldprand.NewSplitMix64(uint64(i)+1))
		if err != nil {
			f.Fatal(err)
		}
		env, err := freqtask.PrivatizeBinary(o, i%8)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(env)
		if i == 0 {
			f.Add(env[:len(env)/2]) // torn mid-envelope
			flipped := append([]byte(nil), env...)
			flipped[len(flipped)-1] ^= 0x40
			f.Add(flipped)
		}
	}
	// A count prefix claiming far more elements than the payload
	// holds: the over-allocation guard must refuse, not allocate.
	f.Add([]byte{0, 2, 'S', 'S', 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add([]byte{})
	// An HRR sign of −255, which narrows to an int8 1: refused.
	f.Add(hrrBinary(3, -255))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mech := range mechs {
			a, err := task.New(cfg(mech))
			if err != nil {
				t.Fatal(err)
			}
			foldOrRefuse(t, mech, a, data)
		}
	})
}

// foldOrRefuse is the contract for one binary payload: PrepareBinary
// refuses it, or the aggregator folds it cleanly — prepare did the
// validation, so the fold under the shard lock cannot fail.
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
	mechs := freqtask.Mechanisms()
	// Seed with one client envelope per mechanism, and shapes only JSON
	// can take.
	for i, mech := range mechs {
		o, err := freqtask.NewOracle(mech, 2, 8, ldprand.NewSplitMix64(uint64(i)+1))
		if err != nil {
			f.Fatal(err)
		}
		env, err := freqtask.Privatize(o, i%8)
		if err != nil {
			f.Fatal(err)
		}
		raw, err := json.Marshal(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, raw := range []string{
		`{"mechanism":"HRR","value":3,"sign":300}`,
		`{"mechanism":"OUE","bits":"not base64"}`,
		`{"mechanism":["GRR"],"value":1}`,
		`{"mechanism":"SHE","reals":[0,0,0,0,0,0,0,0]}`,
		`{"mechanism":"SS","values":[-1,9]}`,
		`null`,
		`not json`,
	} {
		f.Add([]byte(raw))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mech := range mechs {
			a, err := task.New(cfg(mech))
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
