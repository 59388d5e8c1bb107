package hhtask

// Native fuzzing for the state decoder: checkpoint blobs arrive from
// disk, where a crash or operator edit can leave anything, and the
// envelope contract says restore either succeeds onto a consistent
// aggregator or refuses loudly — never panics, never half-applies.
// Seeded with the committed fixture and one-field forgeries of it, so
// mutation starts on both sides of every validation branch.

import (
	"bytes"
	"testing"

	"repro/internal/task"
)

func FuzzUnmarshalState(f *testing.F) {
	golden := fixture(f, "state.bin")
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(append([]byte{99}, golden[1:]...))
	for _, corrupt := range []func(*stateFields){
		func(s *stateFields) { s.roundReports, s.sums = 0, nil },  // an idle round, still accepted
		func(s *stateFields) { s.sums = []int64{1, 2} },           // width mismatch
		func(s *stateFields) { s.round, s.done = s.levels, true }, // done with sums in flight
	} {
		s := decodeFields(f, golden)
		corrupt(&s)
		f.Add(s.encode())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := task.New(cfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := a.UnmarshalState(data); err != nil {
			return // refused loudly: the acceptable failure mode
		}
		// Accepted states must leave a fully consistent aggregator:
		// marshal succeeds and the result restores onto a fresh
		// aggregator reproducing the same bytes — the checkpoint
		// cycle's fixed point.
		out, err := a.MarshalState()
		if err != nil {
			t.Fatalf("accepted state does not re-marshal: %v", err)
		}
		b, err := task.New(cfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := b.UnmarshalState(out); err != nil {
			t.Fatalf("marshaled state of an accepted restore is refused: %v", err)
		}
		out2, err := b.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("restore not a fixed point:\n%x\n%x", out, out2)
		}
	})
}
