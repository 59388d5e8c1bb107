package cmstask_test

// Native fuzzing for PrepareBinary: binary sketch reports arrive from
// the network. The contract matches JSON Prepare's: decode either
// yields a report the aggregator folds cleanly or refuses loudly —
// never panics, never over-allocates. Both mechanisms' decoders run
// against every input.

import (
	"testing"

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
			prepared, err := a.(task.BinaryReporter).PrepareBinary(data)
			if err != nil {
				continue // refused loudly: the acceptable failure mode
			}
			if err := a.Fold(prepared); err != nil {
				t.Fatalf("%s: accepted envelope failed to fold: %v", mech, err)
			}
			if _, err := a.MarshalState(); err != nil {
				t.Fatalf("%s: state does not marshal after fold: %v", mech, err)
			}
		}
	})
}
