package core

// Native fuzzing for RestoreState: version-5 checkpoint
// containers hand the task adapter raw state bytes from disk, where a
// crash, bit rot, or an operator edit can leave anything — truncated
// payloads, flipped bits, length prefixes that lie about how much
// data follows. The contract matches the JSON path's: restore either
// succeeds onto a consistent aggregator or refuses loudly — never
// panics, never over-allocates on a lying length, never half-applies.
// Every config family runs against every input, so cross-family
// confusion (a sketch state fed to a frequency aggregator) is fuzzed
// too.

import (
	"bytes"
	"testing"

	"repro/internal/ldprand"
	"repro/internal/task"
	"repro/internal/task/cmstask"
	"repro/internal/task/freqtask"
	"repro/internal/task/hhtask"
	"repro/internal/task/meantask"
)

// fuzzStateConfigs spans the four task families, the three frequency
// payload shapes (hash-bucket, real-vector, subset), and every
// counting state layout: GRR's and SS's fixed-sum tallies, the unary
// and thresholded encodings' (p, q) and θ fields, and LH's tally at
// both hash ranges.
func fuzzStateConfigs() []task.Config {
	return []task.Config{
		FreqTaskConfig(MechanismOLH, PrivacyParams{Epsilon: 2, Domain: 8}),
		FreqTaskConfig(freqtask.MechanismSHE, PrivacyParams{Epsilon: 2, Domain: 8}),
		FreqTaskConfig(freqtask.MechanismSS, PrivacyParams{Epsilon: 2, Domain: 8}),
		FreqTaskConfig(MechanismGRR, PrivacyParams{Epsilon: 2, Domain: 8}),
		FreqTaskConfig(MechanismOUE, PrivacyParams{Epsilon: 2, Domain: 8}),
		FreqTaskConfig(freqtask.MechanismTHE, PrivacyParams{Epsilon: 2, Domain: 8}),
		FreqTaskConfig(freqtask.MechanismBLH, PrivacyParams{Epsilon: 2, Domain: 8}),
		{Task: task.TypeMean, Mechanism: meantask.MechanismHarmony, Epsilon: 1, Dim: 2},
		{Task: task.TypeSketch, Mechanism: cmstask.MechanismCMS, Epsilon: 2, Width: 32, Hashes: 4, SketchSeed: 9},
		{Task: task.TypeHH, Mechanism: hhtask.MechanismPEM, Epsilon: 2, Bits: 8, Levels: 4, K: 3},
	}
}

func FuzzBinaryState(f *testing.F) {
	// Seed with every config's empty state plus one populated
	// frequency state, so mutation starts from each accepted layout.
	for _, cfg := range fuzzStateConfigs() {
		a, err := NewShardedAggregator(cfg, 1)
		if err != nil {
			f.Fatal(err)
		}
		state, err := a.MarshalState()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(state)
	}
	filled, err := NewShardedAggregator(FreqTaskConfig(MechanismOLH, PrivacyParams{Epsilon: 2, Domain: 8}), 1)
	if err != nil {
		f.Fatal(err)
	}
	client, err := NewClient(MechanismOLH, PrivacyParams{Epsilon: 2, Domain: 8}, ldprand.NewSplitMix64(5))
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		bin, err := client.ReportBinary(i % 8)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := filled.AddBatchBinary([][]byte{bin}); err != nil {
			f.Fatal(err)
		}
	}
	state, err := filled.MarshalState()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(state)
	f.Add(state[:len(state)/2]) // torn mid-payload
	flipped := append([]byte(nil), state...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	// A length prefix claiming far more elements than the blob holds:
	// the decoder's over-allocation guard must refuse, not allocate.
	f.Add([]byte{0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 2, 3})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range fuzzStateConfigs() {
			a, err := NewShardedAggregator(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.RestoreState(data); err != nil {
				continue // refused loudly: the acceptable failure mode
			}
			// Accepted states must leave a fully consistent aggregator:
			// both codecs re-marshal, and the binary bytes restore onto
			// a fresh aggregator reproducing themselves — the checkpoint
			// cycle's fixed point.
			if _, err := a.MarshalState(); err != nil {
				t.Fatalf("%s %s: accepted binary state does not marshal as JSON: %v", cfg.Task, cfg.Mechanism, err)
			}
			out, err := a.MarshalState()
			if err != nil {
				t.Fatalf("%s %s: accepted binary state does not re-marshal: %v", cfg.Task, cfg.Mechanism, err)
			}
			b, err := NewShardedAggregator(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.RestoreState(out); err != nil {
				t.Fatalf("%s %s: re-marshaled state of an accepted restore is refused: %v", cfg.Task, cfg.Mechanism, err)
			}
			out2, err := b.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, out2) {
				t.Fatalf("%s %s: restore not a fixed point", cfg.Task, cfg.Mechanism)
			}
		}
	})
}
