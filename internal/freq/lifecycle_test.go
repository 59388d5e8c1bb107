package freq_test

// The state lifecycle of every tally.Tally user, as one table-driven
// property: the counting oracles (GRR, RR, SUE, OUE, UE, THE, BLH,
// OLH, LH, SS) and the heavy-hitter round accumulator (hh PEM) share
// one Merge, one clone, one reset and one refusal, so they must all
// satisfy the same four laws, checked on their marshalled bytes:
//
//   - a random split of a report stream, merged in a random order,
//     is the sequential fold;
//   - a Snapshot is independent of the original, both ways;
//   - Reset is a fresh instance;
//   - every refusal — a merge across parameters or past int64, a
//     truncated state, a tally no reports could produce — leaves the
//     receiver as it was.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/binenc"
	"repro/internal/bitvec"
	"repro/internal/freq"
	"repro/internal/ldprand"
	"repro/internal/tally"
	"repro/internal/task"
	"repro/internal/task/hhtask"
)

const (
	lifeEps     = 1.5
	lifeDomain  = 16
	lifeReports = 300
)

// stateful is the lifecycle surface freq.Oracle and task.Aggregator
// share, each over its own interface type.
type stateful[T any] interface {
	MarshalState() ([]byte, error)
	UnmarshalState([]byte) error
	Reset()
	Merge(T) error
	Snapshot() T
}

// tallyUser describes one Tally user to the lifecycle property.
type tallyUser[T stateful[T]] struct {
	fresh     func() T                 // an empty instance
	foreign   func() T                 // an empty instance of other parameters
	fold      func(T, int)             // folds report i of a fixed stream
	width     int                      // the tally's cell count
	perReport int                      // cells every report supports, when fixed
	forge     func(tally.Tally) []byte // the state layout around a tally
}

func TestTallyLifecycle(t *testing.T) {
	ue := func(eps float64, src ldprand.Source) freq.Oracle {
		return freq.NewUE(eps, lifeDomain, 0.6, 0.3, src)
	}
	for _, tc := range []struct {
		name      string
		build     func(eps float64, src ldprand.Source) freq.Oracle
		perReport func(freq.Oracle) int
		params    func(freq.Oracle) []any // the layout's own parameter fields
	}{
		{"GRR", func(eps float64, src ldprand.Source) freq.Oracle { return freq.NewGRR(eps, lifeDomain, src) }, oneCell, nil},
		{"RR", func(eps float64, src ldprand.Source) freq.Oracle { return freq.NewBinaryRR(eps, src) }, oneCell, nil},
		{"SUE", func(eps float64, src ldprand.Source) freq.Oracle { return freq.NewSUE(eps, lifeDomain, src) }, nil, ueParams},
		{"OUE", func(eps float64, src ldprand.Source) freq.Oracle { return freq.NewOUE(eps, lifeDomain, src) }, nil, ueParams},
		{"UE", ue, nil, ueParams},
		{"THE", func(eps float64, src ldprand.Source) freq.Oracle { return freq.NewTHE(eps, lifeDomain, src) }, nil,
			func(o freq.Oracle) []any { return []any{o.(*freq.THE).Theta()} }},
		{"BLH", func(eps float64, src ldprand.Source) freq.Oracle { return freq.NewBLH(eps, lifeDomain, src) }, nil, lhParams},
		{"OLH", func(eps float64, src ldprand.Source) freq.Oracle { return freq.NewOLH(eps, lifeDomain, src) }, nil, lhParams},
		{"LH", func(eps float64, src ldprand.Source) freq.Oracle { return freq.NewLH(eps, lifeDomain, 5, src) }, nil, lhParams},
		{"SS", func(eps float64, src ldprand.Source) freq.Oracle { return freq.NewSS(eps, lifeDomain, src) },
			func(o freq.Oracle) int { return o.(*freq.SS).K() },
			func(o freq.Oracle) []any { return []any{o.(*freq.SS).K()} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client := tc.build(lifeEps, ldprand.NewSplitMix64(1))
			u := tallyUser[freq.Oracle]{
				fresh:   func() freq.Oracle { return tc.build(lifeEps, ldprand.NewSplitMix64(0)) },
				foreign: func() freq.Oracle { return tc.build(2*lifeEps, ldprand.NewSplitMix64(0)) },
				fold:    foldFor(client),
				width:   client.Domain(),
			}
			var params []any
			if tc.params != nil {
				params = tc.params(client)
			}
			u.forge = forgeCounting(client, params...)
			if tc.perReport != nil {
				u.perReport = tc.perReport(client)
			}
			checkLifecycle(t, u)
		})
	}

	t.Run("PEM", func(t *testing.T) {
		cfg := func(eps float64) task.Config {
			return task.Config{Task: task.TypeHH, Mechanism: hhtask.MechanismPEM, Epsilon: eps, Bits: 8, Levels: 4, K: 3}
		}
		fresh := func(eps float64) task.Aggregator {
			a, err := task.New(cfg(eps))
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		client, err := hhtask.NewClient(2, 8, 4, ldprand.NewSplitMix64(1))
		if err != nil {
			t.Fatal(err)
		}
		values := ldprand.NewSplitMix64(2)
		raws := make([]json.RawMessage, lifeReports)
		for i := range raws {
			if raws[i], err = client.Report(uint64(ldprand.Intn(values, 256)), 0); err != nil {
				t.Fatal(err)
			}
		}
		// Round 0 scores every prefix of the published length. Its state
		// is the protocol position, the round tally, then the (empty)
		// hits list.
		var f hhtask.Frontier
		raw, err := fresh(2).(task.Phased).Frontier()
		if err != nil || json.Unmarshal(raw, &f) != nil {
			t.Fatalf("frontier %s: %v", raw, err)
		}
		width := 1 << f.PrefixLen
		empty, err := fresh(2).MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		position := empty[:len(empty)-len(tallyBytes(tally.New(width)))-1]
		checkLifecycle(t, tallyUser[task.Aggregator]{
			fresh:   func() task.Aggregator { return fresh(2) },
			foreign: func() task.Aggregator { return fresh(3) },
			fold: func(a task.Aggregator, i int) {
				if err := a.Add(raws[i]); err != nil {
					t.Fatal(err)
				}
			},
			width: width,
			forge: func(tl tally.Tally) []byte {
				return append(append(append([]byte(nil), position...), tallyBytes(tl)...), 0)
			},
		})
	})
}

func oneCell(freq.Oracle) int { return 1 }

// ueParams reads UE's p and q back out of its own state layout, after
// the version byte, name, ε and d.
func ueParams(o freq.Oracle) []any {
	state, err := o.MarshalState()
	if err != nil {
		panic(err)
	}
	r := binenc.NewReader(state)
	r.Byte()
	_ = r.String()
	r.Float64()
	r.Varint()
	return []any{r.Float64(), r.Float64()}
}

// foldFor privatizes a fixed stream of lifeReports values on client
// and returns the fold of report i into any oracle of client's type,
// so every instance folds the identical reports.
func foldFor(client freq.Oracle) func(freq.Oracle, int) {
	switch client.(type) {
	case *freq.GRR:
		return typedFold[int, *freq.GRR](client)
	case freq.BinaryRR:
		return typedFold[int, freq.BinaryRR](client)
	case *freq.UE:
		return typedFold[*bitvec.Vector, *freq.UE](client)
	case *freq.THE:
		return typedFold[*bitvec.Vector, *freq.THE](client)
	case *freq.LH:
		return typedFold[freq.LHReport, *freq.LH](client)
	case *freq.SS:
		return typedFold[[]int, *freq.SS](client)
	}
	panic(fmt.Sprintf("no typed fold for %T", client))
}

func typedFold[R any, O interface {
	Privatize(int) R
	Aggregate(R)
}](client freq.Oracle) func(freq.Oracle, int) {
	values := ldprand.NewSplitMix64(2)
	reports := make([]R, lifeReports)
	for i := range reports {
		reports[i] = client.(O).Privatize(ldprand.Intn(values, client.Domain()))
	}
	return func(o freq.Oracle, i int) { o.(O).Aggregate(reports[i]) }
}

func lhParams(o freq.Oracle) []any { return []any{o.(*freq.LH).G()} }

// tallyBytes is a tally in its own layout.
func tallyBytes(tl tally.Tally) []byte {
	w := binenc.NewWriter()
	defer w.Release()
	tl.Write(w)
	return append([]byte(nil), w.Bytes()...)
}

// forgeCounting writes o's state layout around any tally: version byte,
// name, ε, d, the mechanism's own parameter fields (float64 or int),
// then the tally — LH's with its fixed whole-number byte after n.
func forgeCounting(o freq.Oracle, params ...any) func(tally.Tally) []byte {
	_, lh := o.(*freq.LH)
	return func(tl tally.Tally) []byte {
		w := binenc.NewWriter()
		defer w.Release()
		w.Byte(0)
		w.String(o.Name())
		w.Float64(o.Epsilon())
		w.Varint(int64(o.Domain()))
		for _, p := range params {
			switch p := p.(type) {
			case float64:
				w.Float64(p)
			case int:
				w.Varint(int64(p))
			}
		}
		if lh {
			w.Varint(tl.N)
			w.Byte(1)
			w.Int64s(tl.Cells)
		} else {
			tl.Write(w)
		}
		return append([]byte(nil), w.Bytes()...)
	}
}

// possible returns a tally n reports could have produced: with a fixed
// perReport, every report supporting the first perReport cells;
// otherwise half of them supporting every cell.
func possible(width, perReport int, n int64) tally.Tally {
	tl := tally.New(width)
	tl.N = n
	for i := range tl.Cells {
		switch {
		case perReport == 0:
			tl.Cells[i] = n / 2
		case i < perReport:
			tl.Cells[i] = n
		}
	}
	return tl
}

func checkLifecycle[T stateful[T]](t *testing.T, u tallyUser[T]) {
	t.Helper()
	state := func(x T) []byte {
		t.Helper()
		b, err := x.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	rng := ldprand.NewSplitMix64(3)

	// A random split, merged in a random order, is the sequential fold.
	seq := u.fresh()
	for i := 0; i < lifeReports; i++ {
		u.fold(seq, i)
	}
	parts := make([]T, 2+ldprand.Intn(rng, 4))
	for i := range parts {
		parts[i] = u.fresh()
	}
	for i := 0; i < lifeReports; i++ {
		u.fold(parts[ldprand.Intn(rng, len(parts))], i)
	}
	merged := u.fresh()
	for _, j := range ldprand.Perm(rng, len(parts)) {
		must(merged.Merge(parts[j].Snapshot()))
	}
	want := state(seq)
	if got := state(merged); !bytes.Equal(got, want) {
		t.Fatalf("split-and-merge state differs from the sequential fold:\n%x\n%x", got, want)
	}

	// A Snapshot is independent of the original, both ways.
	snap := seq.Snapshot()
	u.fold(seq, 0)
	if !bytes.Equal(state(snap), want) {
		t.Error("a fold into the original moved its snapshot")
	}
	orig := state(seq)
	u.fold(snap, 1)
	if !bytes.Equal(state(seq), orig) {
		t.Error("a fold into the snapshot moved the original")
	}

	// Reset is a fresh instance.
	seq.Reset()
	if !bytes.Equal(state(seq), state(u.fresh())) {
		t.Error("Reset differs from a fresh instance")
	}

	// The forged layout is the real one: a possible tally restores and
	// re-marshals to itself.
	n := int64(lifeReports)
	sound := u.forge(possible(u.width, u.perReport, n))
	x := u.fresh()
	must(x.UnmarshalState(sound))
	if !bytes.Equal(state(x), sound) {
		t.Fatal("a forged sound state does not re-marshal to itself")
	}

	// Every refusal leaves the receiver as it was.
	edit := func(f func(*tally.Tally)) []byte {
		tl := possible(u.width, u.perReport, n)
		f(&tl)
		return u.forge(tl)
	}
	bad := map[string][]byte{
		"a negative n":     edit(func(tl *tally.Tally) { tl.N = -1; clear(tl.Cells) }),
		"a short vector":   edit(func(tl *tally.Tally) { tl.Cells = tl.Cells[1:] }),
		"a long vector":    edit(func(tl *tally.Tally) { tl.Cells = append(tl.Cells, 0) }),
		"a negative cell":  edit(func(tl *tally.Tally) { tl.Cells[u.width-1] = -1 }),
		"a cell above n":   edit(func(tl *tally.Tally) { tl.Cells[u.width-1] = n + 1 }),
		"a truncated tail": sound[:len(sound)-1],
	}
	if u.perReport > 0 {
		bad["cells summing short of perReport·n"] = edit(func(tl *tally.Tally) { tl.N++ })
		bad["cells summing past perReport·n"] = edit(func(tl *tally.Tally) { tl.Cells[u.perReport]++ })
	}
	before := state(merged)
	for what, blob := range bad {
		if err := merged.UnmarshalState(blob); err == nil {
			t.Errorf("state with %s accepted", what)
		}
		if !bytes.Equal(state(merged), before) {
			t.Errorf("refused state with %s moved the receiver", what)
		}
	}
	if err := merged.Merge(u.foreign()); err == nil {
		t.Error("merge across parameters accepted")
	}
	if !bytes.Equal(state(merged), before) {
		t.Error("refused merge across parameters moved the receiver")
	}

	// Merging sound states until n would pass math.MaxInt64 is refused
	// at that merge, and the refusal moves nothing.
	huge := u.fresh()
	must(huge.UnmarshalState(u.forge(possible(u.width, u.perReport, math.MaxInt64/int64(max(u.perReport, 1))/3))))
	acc := huge.Snapshot()
	for i := 0; ; i++ {
		prev := state(acc)
		if err := acc.Merge(huge.Snapshot()); err != nil {
			if !bytes.Equal(state(acc), prev) {
				t.Error("refused overflowing merge moved the receiver")
			}
			break
		}
		if i > 64 {
			t.Fatal("merges past math.MaxInt64 reports were never refused")
		}
	}
}
