package hhtask

// Native fuzzing for the state decoders: checkpoint blobs arrive from
// disk, where a crash or operator edit can leave anything, and the
// envelope contract says restore either succeeds onto a consistent
// aggregator or refuses loudly — never panics, never half-applies.
// Each input is tried against both decoders (the binary layout and the
// read-only legacy JSON); seeded with the committed fixtures of every
// accepted layout, so mutation explores all three.

import (
	"bytes"
	"testing"

	"repro/internal/task"
)

func FuzzUnmarshalState(f *testing.F) {
	f.Add(fixture(f, "state_legacy_reports.json"))
	f.Add(fixture(f, "state_v2.json"))
	f.Add(fixture(f, "state.bin"))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"v":99,"mechanism":"pem"}`))
	f.Add([]byte(`{"v":2,"mechanism":"pem","epsilon":2,"bits":8,"levels":4,"k":3,"round":1,"prev_users":10,"sums":[1,2]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, legacy := range []bool{false, true} {
			a, err := task.New(cfg())
			if err != nil {
				t.Fatal(err)
			}
			if legacy {
				err = a.(task.LegacyStater).UnmarshalLegacyState(data)
			} else {
				err = a.UnmarshalState(data)
			}
			if err != nil {
				continue // refused loudly: the acceptable failure mode
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
		}
	})
}
