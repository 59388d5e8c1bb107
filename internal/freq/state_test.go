package freq

// Serialization coverage for every oracle in the registry: state must
// round-trip bit-identically (the property the server checkpoint cycle
// rests on), be stable under re-marshalling, and refuse to restore
// onto an oracle with different parameters or a different mechanism.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/binenc"
	"repro/internal/ldprand"
)

// collectSome drives a few hundred random values through the oracle.
func collectSome(o Oracle, seed uint64, n int) {
	src := ldprand.NewSplitMix64(seed)
	for i := 0; i < n; i++ {
		o.Collect(ldprand.Intn(src, o.Domain()))
	}
}

func TestStateRoundTripAllMechanisms(t *testing.T) {
	cfg := Config{Epsilon: 1.2, Domain: 16}
	for _, m := range Mechanisms() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			o := m.Build(Config{Epsilon: cfg.Epsilon, Domain: cfg.Domain, Source: ldprand.NewSplitMix64(11)})
			collectSome(o, 13, 400)

			state, err := o.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			fresh := m.Build(cfg)
			if err := fresh.UnmarshalState(state); err != nil {
				t.Fatal(err)
			}
			if fresh.Collected() != o.Collected() {
				t.Fatalf("collected %d, want %d", fresh.Collected(), o.Collected())
			}
			// Bit-identical estimates, not approximately equal: restore
			// must reproduce the aggregate exactly.
			if !reflect.DeepEqual(fresh.EstimateCounts(), o.EstimateCounts()) {
				t.Fatal("restored estimates differ from the original")
			}
			// Marshalling the restored oracle reproduces the same bytes.
			again, err := fresh.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(state, again) {
				t.Fatalf("re-marshalled state differs:\n%x\n%x", state, again)
			}
			// The restored oracle is a full citizen: merging the
			// original's snapshot in doubles every tally.
			if err := fresh.Merge(o.Snapshot()); err != nil {
				t.Fatal(err)
			}
			if fresh.Collected() != 2*o.Collected() {
				t.Fatalf("merged collected %d, want %d", fresh.Collected(), 2*o.Collected())
			}
		})
	}
}

func TestStateRoundTripBinaryRR(t *testing.T) {
	b := NewBinaryRR(0.8, ldprand.NewSplitMix64(17))
	collectSome(b, 19, 300)
	state, err := b.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewBinaryRR(0.8, nil)
	if err := fresh.UnmarshalState(state); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.EstimateCounts(), b.EstimateCounts()) {
		t.Fatal("restored estimates differ from the original")
	}
	// BinaryRR state carries the wrapper's "RR" name, so it must not
	// restore into a generic d=2 GRR (and vice versa), mirroring Merge.
	grr := NewGRR(0.8, 2, nil)
	if err := grr.UnmarshalState(state); err == nil {
		t.Fatal("RR state restored into a plain GRR")
	}
	grrState, err := grr.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewBinaryRR(0.8, nil).UnmarshalState(grrState); err == nil {
		t.Fatal("GRR state restored into a BinaryRR")
	}
}

func TestStateRejectsMismatch(t *testing.T) {
	cfg := Config{Epsilon: 1.2, Domain: 16}
	builders := Mechanisms()
	// State from each mechanism must be rejected by every other
	// mechanism (at identical ε and d, the confusable case).
	states := make(map[string][]byte)
	for _, m := range builders {
		o := m.Build(Config{Epsilon: cfg.Epsilon, Domain: cfg.Domain, Source: ldprand.NewSplitMix64(23)})
		collectSome(o, 29, 50)
		st, err := o.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		states[m.Name] = st
	}
	for _, m := range builders {
		for name, st := range states {
			if name == m.Name {
				continue
			}
			if err := m.Build(cfg).UnmarshalState(st); err == nil {
				t.Errorf("%s accepted %s state", m.Name, name)
			}
		}
	}
}

func TestStateRejectsParamAndShapeChanges(t *testing.T) {
	for _, m := range Mechanisms() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			o := m.Build(Config{Epsilon: 1.2, Domain: 16, Source: ldprand.NewSplitMix64(31)})
			collectSome(o, 37, 50)
			st, err := o.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Build(Config{Epsilon: 0.7, Domain: 16}).UnmarshalState(st); err == nil {
				t.Error("state restored under a different epsilon")
			}
			if err := m.Build(Config{Epsilon: 1.2, Domain: 32}).UnmarshalState(st); err == nil {
				t.Error("state restored under a different domain")
			}
			if err := m.Build(Config{Epsilon: 1.2, Domain: 16}).UnmarshalState(st[:len(st)/2]); err == nil {
				t.Error("truncated state accepted")
			}
			if err := m.Build(Config{Epsilon: 1.2, Domain: 16}).UnmarshalState(nil); err == nil {
				t.Error("empty state accepted")
			}
			if err := m.Build(Config{Epsilon: 1.2, Domain: 16}).UnmarshalLegacyState([]byte(`{"mechanism":`)); err == nil {
				t.Error("truncated legacy JSON accepted")
			}
			if err := m.Build(Config{Epsilon: 1.2, Domain: 16}).UnmarshalLegacyState([]byte(`{}`)); err == nil {
				t.Error("empty legacy state object accepted")
			}
		})
	}
}

// TestStateFailureLeavesOracleUsable pins that a rejected restore does
// not corrupt the receiver: parameter checks run before any tally is
// touched.
func TestStateFailureLeavesOracleUsable(t *testing.T) {
	o := NewGRR(1.0, 8, ldprand.NewSplitMix64(41))
	collectSome(o, 43, 100)
	before := o.EstimateCounts()
	wrong := NewGRR(2.0, 8, nil)
	wrongState, err := wrong.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if err := o.UnmarshalState(wrongState); err == nil {
		t.Fatal("mismatched state accepted")
	}
	if !reflect.DeepEqual(o.EstimateCounts(), before) {
		t.Fatal("failed restore mutated the oracle")
	}
}

// TestStateRejectsUnknownVersion pins the version gate of the legacy
// JSON decoder on every mechanism: the frozen fixtures carry no tag,
// an explicit v=0 tag still restores, and any other tag is refused
// instead of being reinterpreted field-by-field. (The binary layout's
// gate is pinned by TestBinaryStateRefusesGarbage.)
func TestStateRejectsUnknownVersion(t *testing.T) {
	for _, m := range Mechanisms() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			state, err := os.ReadFile(filepath.Join("testdata", "state_"+m.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(state, []byte(`"v":`)) {
				t.Fatalf("fixture carries a version tag: %s", state)
			}
			fresh := m.Build(Config{Epsilon: 1.25, Domain: 16})
			if err := fresh.UnmarshalLegacyState(append([]byte(`{"v":99,`), state[1:]...)); err == nil {
				t.Fatal("restore accepted a version-99 state blob")
			}
			if fresh.Collected() != 0 {
				t.Fatal("failed restore mutated the oracle")
			}
			if err := fresh.UnmarshalLegacyState(append([]byte(`{"v":0,`), state[1:]...)); err != nil {
				t.Fatalf("restore rejected an explicit v=0 tag: %v", err)
			}
		})
	}
}

// TestLHStateRefusesBadSupport: a local-hashing support tally is a
// count of reports — a whole number in [0, n] — and a checkpoint or
// merge delta saying otherwise would poison every later estimate. Both
// decoders refuse it and leave the receiver untouched.
func TestLHStateRefusesBadSupport(t *testing.T) {
	const d, n = 8, 5
	for _, build := range []func() *LH{
		func() *LH { return NewOLH(1.2, d, ldprand.NewSplitMix64(3)) },
		func() *LH { return NewBLH(1.2, d, ldprand.NewSplitMix64(3)) },
	} {
		l := build()
		collectSome(l, 5, n)
		good, err := l.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		before := l.EstimateCounts()

		encode := func(cell float64) []byte {
			support := make([]float64, d)
			support[d-1] = cell
			w := binenc.NewWriter()
			defer w.Release()
			w.Byte(binaryStateVersion)
			w.String(l.name)
			w.Float64(l.epsilon)
			w.Varint(d)
			w.Varint(int64(l.g))
			w.Varint(n)
			w.PackedFloat64s(support)
			return append([]byte(nil), w.Bytes()...)
		}
		for _, ok := range []float64{0, 1, n} {
			if err := build().UnmarshalState(encode(ok)); err != nil {
				t.Errorf("%s: support cell %v refused: %v", l.name, ok, err)
			}
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0.5, n + 1, 1 << 63, 1e300} {
			if err := l.UnmarshalState(encode(bad)); err == nil {
				t.Errorf("%s: binary state with support cell %v accepted", l.name, bad)
			}
		}
		for _, bad := range []string{"-1", "0.5", "6", "1e300"} {
			legacy := fmt.Sprintf(`{"mechanism":%q,"epsilon":1.2,"domain":%d,"g":%d,"n":%d,"support":[0,0,0,0,0,0,0,%s]}`,
				l.name, d, l.g, n, bad)
			if err := l.UnmarshalLegacyState([]byte(legacy)); err == nil {
				t.Errorf("%s: legacy state with support cell %s accepted", l.name, bad)
			}
		}
		if !reflect.DeepEqual(l.EstimateCounts(), before) || l.Collected() != n {
			t.Errorf("%s: a refused restore mutated the oracle", l.name)
		}
		if err := l.UnmarshalState(good); err != nil {
			t.Errorf("%s: own state refused after the hostile ones: %v", l.name, err)
		}
	}
}
