package freq

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ldprand"
)

// binaryOracles builds one oracle of every mechanism, fed with a
// deterministic report stream so the states are non-trivial.
func binaryOracles(t *testing.T, fill int) []Oracle {
	t.Helper()
	const d = 37
	var out []Oracle
	for _, m := range Mechanisms() {
		src := ldprand.NewSplitMix64(0xC0FFEE ^ uint64(len(out)))
		o := m.Build(Config{Epsilon: 1.25, Domain: d, Source: src})
		for i := 0; i < fill; i++ {
			o.Collect(i % d)
		}
		out = append(out, o)
	}
	src := ldprand.NewSplitMix64(0xBEEF)
	rr := NewBinaryRR(1.25, src)
	for i := 0; i < fill; i++ {
		rr.Collect(i % 2)
	}
	out = append(out, rr)
	return out
}

// sameCounts compares two estimate vectors bit for bit.
func sameCounts(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBinaryStateRoundTrip checks that for every mechanism a state
// restored onto a fresh oracle estimates bit-identically and
// re-marshals to the same bytes.
func TestBinaryStateRoundTrip(t *testing.T) {
	for _, o := range binaryOracles(t, 500) {
		want := o.EstimateCounts()
		bin, err := o.MarshalState()
		if err != nil {
			t.Fatalf("%s: MarshalState: %v", o.Name(), err)
		}
		fresh := freshLike(t, o)
		if err := fresh.UnmarshalState(bin); err != nil {
			t.Fatalf("%s: UnmarshalState: %v", o.Name(), err)
		}
		if !sameCounts(want, fresh.EstimateCounts()) {
			t.Errorf("%s: restore diverged from source estimates", o.Name())
		}
		if fresh.Collected() != o.Collected() {
			t.Errorf("%s: restore Collected = %d, want %d", o.Name(), fresh.Collected(), o.Collected())
		}
		bin2, err := fresh.MarshalState()
		if err != nil {
			t.Fatalf("%s: re-MarshalState: %v", o.Name(), err)
		}
		if string(bin2) != string(bin) {
			t.Errorf("%s: re-encode not a fixed point", o.Name())
		}
	}
}

// TestLegacyStateFixtures is the frozen half of the compatibility
// contract. testdata/state_<mechanism>.bin is the state of one
// aggregate (ε=1.25, d=16, 200 reports) as an older build wrote it, at
// commit 5a353ae: it must still restore, to that aggregate, and this
// build must write that aggregate as exactly those bytes.
func TestLegacyStateFixtures(t *testing.T) {
	builders := []func() Oracle{func() Oracle { return NewBinaryRR(1.25, nil) }}
	for _, m := range Mechanisms() {
		builders = append(builders, func() Oracle { return m.Build(Config{Epsilon: 1.25, Domain: 16}) })
	}
	for _, build := range builders {
		o := build()
		golden, err := os.ReadFile(filepath.Join("testdata", "state_"+o.Name()+".bin"))
		if err != nil {
			t.Fatal(err)
		}
		if err := o.UnmarshalState(golden); err != nil {
			t.Fatalf("%s: golden fixture refused: %v", o.Name(), err)
		}
		if o.Collected() != 200 {
			t.Errorf("%s: Collected = %d, want 200", o.Name(), o.Collected())
		}
		if got, err := o.MarshalState(); err != nil || !bytes.Equal(got, golden) {
			t.Errorf("%s: MarshalState = %x (%v), golden %x", o.Name(), got, err, golden)
		}
	}
}

// freshLike builds an empty oracle with the same mechanism and
// parameters as o.
func freshLike(t *testing.T, o Oracle) Oracle {
	t.Helper()
	if rr, ok := o.(BinaryRR); ok {
		return NewBinaryRR(rr.Epsilon(), nil)
	}
	for _, m := range Mechanisms() {
		if m.Name == o.Name() {
			return m.Build(Config{Epsilon: o.Epsilon(), Domain: o.Domain()})
		}
	}
	t.Fatalf("no builder for %s", o.Name())
	return nil
}

// TestBinaryStateRefusesGarbage checks that truncated, bit-flipped and
// cross-mechanism payloads are refused without panicking, and that the
// receiver keeps its state.
func TestBinaryStateRefusesGarbage(t *testing.T) {
	oracles := binaryOracles(t, 100)
	for _, o := range oracles {
		bin, err := o.MarshalState()
		if err != nil {
			t.Fatalf("%s: MarshalState: %v", o.Name(), err)
		}
		want := o.EstimateCounts()

		// Every truncation must be refused.
		for cut := 0; cut < len(bin); cut += 1 + len(bin)/64 {
			if err := o.UnmarshalState(bin[:cut]); err == nil {
				t.Errorf("%s: truncation at %d accepted", o.Name(), cut)
			}
		}
		// An unknown version tag must be refused before the payload is
		// read.
		bad := append([]byte(nil), bin...)
		bad[0] = 99
		if err := o.UnmarshalState(bad); err == nil {
			t.Errorf("%s: future version accepted", o.Name())
		}
		if !sameCounts(want, o.EstimateCounts()) {
			t.Errorf("%s: failed restore mutated the receiver", o.Name())
		}
	}
	// Cross-mechanism restore: every payload into every other oracle.
	for _, src := range oracles {
		bin, _ := src.MarshalState()
		for _, dst := range oracles {
			if dst.Name() == src.Name() {
				continue
			}
			if err := dst.UnmarshalState(bin); err == nil {
				t.Errorf("%s state accepted by %s", src.Name(), dst.Name())
			}
		}
	}
}
