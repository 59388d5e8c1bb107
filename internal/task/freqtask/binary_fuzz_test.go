package freqtask_test

// Native fuzzing for PrepareBinary: binary report envelopes arrive
// from the network, so the decoder faces truncated frames, flipped
// bits, wrong-mechanism headers, and length prefixes that lie. The
// contract matches JSON Prepare's: decode either yields a report the
// oracle folds cleanly or refuses loudly — never panics, never
// over-allocates. Every mechanism's decoder runs against every input,
// so cross-mechanism confusion is fuzzed too.

import (
	"testing"

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
			br, ok := a.(task.BinaryReporter)
			if !ok {
				t.Fatalf("%s adapter lost its binary decoder", mech)
			}
			prepared, err := br.PrepareBinary(data)
			if err != nil {
				continue // refused loudly: the acceptable failure mode
			}
			// Accepted envelopes must fold cleanly: prepare did the
			// validation, so the fold under the shard lock cannot fail.
			if err := a.(task.Preparer).Fold(prepared); err != nil {
				t.Fatalf("%s: accepted envelope failed to fold: %v", mech, err)
			}
			if _, err := a.MarshalState(); err != nil {
				t.Fatalf("%s: state does not marshal after fold: %v", mech, err)
			}
		}
	})
}
