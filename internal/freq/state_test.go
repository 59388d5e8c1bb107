package freq

// Serialization coverage for every oracle in the registry: state must
// round-trip bit-identically (the property the server checkpoint cycle
// rests on), be stable under re-marshalling, and refuse to restore
// onto an oracle with different parameters or a different mechanism.

import (
	"bytes"
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
		})
	}
}

// forgeState writes a state blob field by field, the way each
// MarshalState lays it out: a byte is the version tag, ints are
// varints, []int a packed tally vector, []float64 a packed float
// vector.
func forgeState(fields ...any) []byte {
	w := binenc.NewWriter()
	defer w.Release()
	for _, f := range fields {
		switch v := f.(type) {
		case byte:
			w.Byte(v)
		case string:
			w.String(v)
		case float64:
			w.Float64(v)
		case int:
			w.Varint(int64(v))
		case []int:
			w.Ints(v)
		case []float64:
			w.PackedFloat64s(v)
		default:
			panic("forgeState: unsupported field type")
		}
	}
	return append([]byte(nil), w.Bytes()...)
}

// TestStateFailureLeavesOracleUsable pins every refusal a decoder
// holds beyond the parameter match, on forged states whose header is
// the receiver's own: tallies no multiset of reports could produce are
// refused — including a GRR sum that only reaches n by wrapping int64,
// and SS cells each within [0, n] that do not sum to k·n — and a
// refused restore leaves the receiver's state byte for byte as it was:
// validation runs before any tally is touched.
func TestStateFailureLeavesOracleUsable(t *testing.T) {
	const eps, d = 1.2, 4
	sue, oue := NewSUE(eps, d, nil), NewOUE(eps, d, nil)
	the, ss := NewTHE(eps, d, nil), NewSS(eps, d, nil)
	blh, olh := NewBLH(eps, d, nil), NewOLH(eps, d, nil)
	ints := func(header ...any) func(n int, tallies []int) []byte {
		return func(n int, tallies []int) []byte { return forgeState(append(header, n, tallies)...) }
	}
	floats := func(header ...any) func(n int, cells []float64) []byte {
		return func(n int, cells []float64) []byte { return forgeState(append(header, n, cells)...) }
	}
	v := byte(binaryStateVersion)
	intCases := []struct {
		build func() Oracle
		forge func(n int, tallies []int) []byte
		exact bool // tallies must sum to n (GRR, and SS at k=1), not merely stay within [0, n]
	}{
		{func() Oracle { return NewGRR(eps, d, nil) }, ints(v, "GRR", eps, d), true},
		{func() Oracle { return NewSUE(eps, d, nil) }, ints(v, "SUE", eps, d, sue.p, sue.q), false},
		{func() Oracle { return NewOUE(eps, d, nil) }, ints(v, "OUE", eps, d, oue.p, oue.q), false},
		{func() Oracle { return NewTHE(eps, d, nil) }, ints(v, "THE", eps, d, the.theta), false},
		{func() Oracle { return NewSS(eps, d, nil) }, ints(v, "SS", eps, d, ss.k), ss.k == 1},
	}
	floatCases := []struct {
		build func() Oracle
		forge func(n int, cells []float64) []byte
	}{
		{func() Oracle { return NewSHE(eps, d, nil) }, floats(v, "SHE", eps, d)},
		{func() Oracle { return NewHRR(eps, d, nil) }, floats(v, "HRR", eps, d)},
		{func() Oracle { return NewBLH(eps, d, nil) }, floats(v, "BLH", eps, d, blh.g)},
		{func() Oracle { return NewOLH(eps, d, nil) }, floats(v, "OLH", eps, d, olh.g)},
	}

	// check restores good onto a fresh oracle (so a refusal below is the
	// tallies' doing, not the forgery's), then requires every bad state
	// to bounce off a populated oracle without moving it.
	check := func(t *testing.T, build func() Oracle, good []byte, bad map[string][]byte) {
		t.Helper()
		o := build()
		if err := o.UnmarshalState(good); err != nil {
			t.Fatalf("%s: well-formed forged state refused: %v", o.Name(), err)
		}
		before, err := o.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, good) {
			t.Fatalf("%s: forged state re-marshals to %x, forged %x", o.Name(), before, good)
		}
		for what, state := range bad {
			if err := o.UnmarshalState(state); err == nil {
				t.Errorf("%s: state with %s accepted", o.Name(), what)
			}
			if after, err := o.MarshalState(); err != nil || !bytes.Equal(after, before) {
				t.Errorf("%s: refused state with %s mutated the oracle (%v)", o.Name(), what, err)
			}
		}
	}
	for _, tc := range intCases {
		bad := map[string][]byte{
			"a negative tally":      tc.forge(2, []int{3, -1, 0, 0}),
			"a short tally vector":  tc.forge(2, []int{1, 1, 0}),
			"a long tally vector":   tc.forge(2, []int{1, 1, 0, 0, 0}),
			"a negative n":          tc.forge(-1, []int{0, 0, 0, 0}),
			"a future version byte": append([]byte{99}, tc.forge(2, []int{1, 1, 0, 0})[1:]...),
		}
		if tc.exact {
			bad["tallies summing below n"] = tc.forge(3, []int{1, 1, 0, 0})
			bad["tallies summing above n"] = tc.forge(1, []int{1, 1, 0, 0})
			bad["tallies whose sum wraps to n"] = tc.forge(3, []int{1 << 62, 1 << 62, 1 << 62, 1<<62 + 3})
		}
		bad["a tally above n"] = tc.forge(2, []int{3, 0, 0, 0})
		check(t, tc.build, tc.forge(2, []int{1, 1, 0, 0}), bad)
	}
	// Every SS report supports exactly k values, so cells that each stay
	// within [0, n] but sum past k·n are no report multiset's.
	ss8 := ints(v, "SS", eps, 8, 2)
	check(t, func() Oracle { return NewSSWithK(eps, 8, 2, nil) }, ss8(5, []int{5, 5, 0, 0, 0, 0, 0, 0}), map[string][]byte{
		"every cell at n (Σ=40, not k·n=10)": ss8(5, []int{5, 5, 5, 5, 5, 5, 5, 5}),
		"cells summing short of k·n":         ss8(5, []int{5, 4, 0, 0, 0, 0, 0, 0}),
	})
	for _, tc := range floatCases {
		check(t, tc.build, tc.forge(2, []float64{1, 1, 0, 0}), map[string][]byte{
			"a short sum vector":    tc.forge(2, []float64{1, 1, 0}),
			"a long sum vector":     tc.forge(2, []float64{1, 1, 0, 0, 0}),
			"a negative n":          tc.forge(-1, []float64{0, 0, 0, 0}),
			"a future version byte": append([]byte{99}, tc.forge(2, []float64{1, 1, 0, 0})[1:]...),
		})
	}
	rr := ints(v, "RR", eps, 2)
	check(t, func() Oracle { return NewBinaryRR(eps, nil) }, rr(2, []int{1, 1}), map[string][]byte{
		"tallies summing below n": rr(3, []int{1, 1}),
		"a negative tally":        rr(2, []int{3, -1}),
		"GRR's name":              forgeState(v, "GRR", eps, 2, 2, []int{1, 1}),
	})
}

// TestStateRejectsUnknownVersion pins the version gate on every
// mechanism against the frozen fixtures: the leading tag is checked
// before anything else is read, so any value but the current one is
// refused instead of being reinterpreted field by field.
func TestStateRejectsUnknownVersion(t *testing.T) {
	for _, m := range Mechanisms() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			state, err := os.ReadFile(filepath.Join("testdata", "state_"+m.Name+".bin"))
			if err != nil {
				t.Fatal(err)
			}
			if state[0] != binaryStateVersion {
				t.Fatalf("fixture opens with version byte %d", state[0])
			}
			fresh := m.Build(Config{Epsilon: 1.25, Domain: 16})
			for _, version := range []byte{1, 2, 99, 0xFF} {
				if err := fresh.UnmarshalState(append([]byte{version}, state[1:]...)); err == nil {
					t.Fatalf("restore accepted a version-%d state blob", version)
				}
			}
			if fresh.Collected() != 0 {
				t.Fatal("failed restore mutated the oracle")
			}
			if err := fresh.UnmarshalState(state); err != nil {
				t.Fatalf("restore rejected the fixture after the hostile ones: %v", err)
			}
		})
	}
}

// TestLHStateRefusesBadSupport: a local-hashing support tally is a
// count of reports — a whole number in [0, n] — and a checkpoint or
// merge delta saying otherwise would poison every later estimate. The
// decoder refuses it and leaves the receiver untouched.
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
			return forgeState(byte(binaryStateVersion), l.name, l.epsilon, d, l.g, n, support)
		}
		for _, ok := range []float64{0, 1, n} {
			if err := build().UnmarshalState(encode(ok)); err != nil {
				t.Errorf("%s: support cell %v refused: %v", l.name, ok, err)
			}
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0.5, n + 1, 1 << 63, 1e300} {
			if err := l.UnmarshalState(encode(bad)); err == nil {
				t.Errorf("%s: state with support cell %v accepted", l.name, bad)
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
