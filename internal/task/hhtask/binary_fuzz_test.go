package hhtask

// Native fuzzing for the two report decoders. PrepareBinary faces
// binary envelopes from the network: truncated, bit-flipped,
// wrong-mechanism, buckets and rounds out of range. It either yields a
// report the aggregator folds cleanly — or, for a round other than the
// current one, refuses at Fold with task.ErrWrongRound — or refuses
// loudly; it never panics. Translate faces any JSON body a client
// sends: it refuses, or PrepareBinary decides what it wrote.

import (
	"errors"
	"testing"

	"repro/internal/binenc"
	"repro/internal/ldprand"
	"repro/internal/task"
)

// foldOrRefuse is the contract for one binary payload against a
// round-0 aggregator: PrepareBinary refuses it, or Fold accepts it or
// refuses it as wrong-round, and the state still marshals and restores.
func foldOrRefuse(t *testing.T, payload []byte) {
	t.Helper()
	a, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := a.PrepareBinary(payload)
	if err != nil {
		return // refused loudly: the acceptable failure mode
	}
	if err := a.Fold(prepared); err != nil && !errors.Is(err, task.ErrWrongRound) {
		t.Fatalf("accepted envelope failed to fold: %v", err)
	}
	state, err := a.MarshalState()
	if err != nil {
		t.Fatalf("state does not marshal after fold: %v", err)
	}
	b, _ := New(cfg())
	if err := b.UnmarshalState(state); err != nil {
		t.Fatalf("state does not restore after fold: %v", err)
	}
}

// envelopeBytes lays out e in the binary envelope layout.
func envelopeBytes(e Envelope) []byte {
	var w binenc.Writer
	writeEnvelope(&w, e)
	return w.Bytes()
}

func FuzzBinaryEnvelope(f *testing.F) {
	// Seed with a client envelope per round, and the boundaries: the
	// bucket G (one past the last), which PrepareBinary refuses, and a
	// negative round, which Fold refuses as wrong-round.
	c, err := NewClient(2, 8, 4, ldprand.NewSplitMix64(1))
	if err != nil {
		f.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		env, err := c.ReportBinary(0xAB, round)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(env)
	}
	a, err := New(cfg())
	if err != nil {
		f.Fatal(err)
	}
	g := a.(*Aggregator).mech.G()
	f.Add(envelopeBytes(Envelope{Mechanism: MechanismPEM, Seed: 7, Bucket: g}))
	f.Add(envelopeBytes(Envelope{Mechanism: MechanismPEM, Round: -1, Seed: 7, Bucket: g - 1}))
	f.Add(envelopeBytes(Envelope{Mechanism: "OLH", Seed: 7, Bucket: 1}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) { foldOrRefuse(t, data) })
}

func FuzzTranslate(f *testing.F) {
	// Seed with a client envelope, and shapes only JSON can take.
	c, err := NewClient(2, 8, 4, ldprand.NewSplitMix64(2))
	if err != nil {
		f.Fatal(err)
	}
	raw, err := c.Report(0xAB, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(raw))
	for _, raw := range []string{
		`{"mechanism":"PEM","round":-1,"seed":7,"bucket":1}`,
		`{"mechanism":"PEM","round":0,"seed":-7,"bucket":1}`,
		`{"mechanism":"PEM","round":0,"seed":7,"bucket":1e9}`,
		`{"mechanism":["PEM"]}`,
		`null`,
		`not json`,
	} {
		f.Add([]byte(raw))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := New(cfg())
		if err != nil {
			t.Fatal(err)
		}
		var w binenc.Writer
		if err := a.Translate(&w, data); err != nil {
			return // refused loudly: the acceptable failure mode
		}
		foldOrRefuse(t, w.Bytes())
	})
}
