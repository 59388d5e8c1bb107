package hhtask

// Tests for the fixed-size candidate accumulator that replaced the
// per-round report list: exact (bit-for-bit) equivalence against the
// list-based EstimateCounts reference, restoration of the frozen state
// fixture, the state decoder's refusals, and the bounded-round-memory
// regression the load-harness roadmap depends on.

import (
	"bytes"
	"encoding/json"
	"net/url"
	"runtime"
	"sort"
	"testing"

	"repro/internal/binenc"
	"repro/internal/heavyhitters"
	"repro/internal/ldprand"
	"repro/internal/task"
)

// fixtureValue reproduces the value distribution the committed state
// fixture was generated from: planted hitters 0xAB and 0x17 over a
// uniform background.
func fixtureValue(src ldprand.Source) uint64 {
	v := uint64(ldprand.Intn(src, 256))
	switch ldprand.Intn(src, 10) {
	case 0, 1, 2, 3:
		v = 0xAB
	case 4, 5:
		v = 0x17
	}
	return v
}

// TestLegacySnapshotRestoresBitIdentically pins the snapshot
// compatibility contract against frozen bytes: testdata/state.bin, a
// mid-round-1 state an older build wrote at commit 5a353ae, restores
// and re-marshals to itself, and the result is bit-identical — same
// marshaled state, same frontier, same post-advance survivors — to an
// aggregator that absorbs the same envelope stream live.
func TestLegacySnapshotRestoresBitIdentically(t *testing.T) {
	golden := fixture(t, "state.bin")
	restored, _ := task.New(cfg())
	if err := restored.UnmarshalState(golden); err != nil {
		t.Fatalf("golden state refused: %v", err)
	}
	if restored.Collected() != 420 || restored.(task.Phased).RoundReports() != 120 {
		t.Fatalf("restored counters: collected %d round %d, want 420/120",
			restored.Collected(), restored.(task.Phased).RoundReports())
	}

	// Rebuild the same protocol state live from the deterministic
	// envelope stream the fixture was generated from (client seed 1017,
	// value seed 1018, 300 round-0 reports then 120 round-1 reports).
	live, _ := task.New(cfg())
	client, err := NewClient(2, 8, 4, ldprand.NewSplitMix64(1017))
	if err != nil {
		t.Fatal(err)
	}
	vals := ldprand.NewSplitMix64(1018)
	feed := func(round, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			raw, err := client.Report(fixtureValue(vals), round)
			if err != nil {
				t.Fatal(err)
			}
			if err := live.Add(raw); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(0, 300)
	if err := live.(task.Phased).Advance(); err != nil {
		t.Fatal(err)
	}
	feed(1, 120)

	wantState, err := live.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	gotState, err := restored.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotState, golden) || !bytes.Equal(wantState, golden) {
		t.Fatalf("golden state diverged:\nrestored %x\nlive     %x\ngolden   %x", gotState, wantState, golden)
	}
	wantF, _ := live.(task.Phased).Frontier()
	gotF, _ := restored.(task.Phased).Frontier()
	if !bytes.Equal(gotF, wantF) {
		t.Fatalf("frontier diverged:\nrestored %s\nlive     %s", gotF, wantF)
	}

	// The restored protocol continues exactly like the live one.
	for !restored.(task.Phased).Done() {
		if err := restored.(task.Phased).Advance(); err != nil {
			t.Fatal(err)
		}
		if err := live.(task.Phased).Advance(); err != nil {
			t.Fatal(err)
		}
	}
	wantE, _ := live.Estimate(url.Values{"top": {"3"}})
	gotE, _ := restored.Estimate(url.Values{"top": {"3"}})
	if !bytes.Equal(gotE, wantE) {
		t.Fatalf("post-advance estimate diverged:\nrestored %s\nlive     %s", gotE, wantE)
	}
}

// referenceSurvivors recomputes one round boundary the pre-accumulator
// way: EstimateCounts over the full report list, then the same stable
// top-keep selection Advance applies. This is the oracle the
// accumulator path must match bit for bit.
func referenceSurvivors(p heavyhitters.PEMParams, mech heavyhitters.LHMech, round int, survivors []Prefix, reports []heavyhitters.LHReport) []Prefix {
	cands := candidatesFor(p, round, survivors)
	counts := mech.EstimateCounts(reports, cands)
	keep := p.Budget()
	if round == p.Levels-1 {
		keep = p.K
	}
	if keep > len(cands) {
		keep = len(cands)
	}
	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool { return counts[idx[x]] > counts[idx[y]] })
	kept := make([]Prefix, keep)
	for i := 0; i < keep; i++ {
		kept[i] = Prefix{Value: cands[idx[i]], Count: counts[idx[i]]}
	}
	return kept
}

// TestAccumulatorMatchesListReference is the exact-equivalence property
// test: across random report multisets, random shard assignments and
// orders, and mid-round merges, the accumulator path produces support
// sums and survivor counts bit-identical to the list-based
// EstimateCounts reference.
func TestAccumulatorMatchesListReference(t *testing.T) {
	configs := []task.Config{
		{Task: task.TypeHH, Epsilon: 2, Bits: 8, Levels: 4, K: 3},
		{Task: task.TypeHH, Epsilon: 0.5, Bits: 10, Levels: 2, K: 2, Budget: 8},
		{Task: task.TypeHH, Epsilon: 5, Bits: 6, Levels: 3, K: 4},
	}
	for trial, tc := range configs {
		p, err := params(tc)
		if err != nil {
			t.Fatal(err)
		}
		mech := heavyhitters.NewLHMech(p.Epsilon)
		client, err := NewClient(p.Epsilon, p.Bits, p.Levels, ldprand.NewSplitMix64(uint64(3000+trial)))
		if err != nil {
			t.Fatal(err)
		}
		rng := ldprand.NewSplitMix64(uint64(4000 + trial))

		const nShards = 3
		shards := make([]task.Aggregator, nShards)
		for i := range shards {
			shards[i], _ = task.New(tc)
		}
		var refSurvivors []Prefix
		for round := 0; round < p.Levels; round++ {
			nr := ldprand.Intn(rng, 300) + 50
			var list []heavyhitters.LHReport
			var halfList []heavyhitters.LHReport
			half := nr / 2
			for i := 0; i < nr; i++ {
				var v uint64
				if p.Bits < 64 {
					v = uint64(ldprand.Intn(rng, 1<<uint(p.Bits)))
				}
				raw, err := client.Report(v, round)
				if err != nil {
					t.Fatal(err)
				}
				var e Envelope
				if err := json.Unmarshal(raw, &e); err != nil {
					t.Fatal(err)
				}
				list = append(list, heavyhitters.LHReport{Seed: e.Seed, Bucket: e.Bucket})
				if i < half {
					halfList = append(halfList, heavyhitters.LHReport{Seed: e.Seed, Bucket: e.Bucket})
				}
				// Random shard assignment — arrival order and placement
				// must not matter.
				if err := shards[ldprand.Intn(rng, nShards)].Add(raw); err != nil {
					t.Fatal(err)
				}
				if i == half-1 {
					// Mid-round merge: a random-order merge of the shards
					// (the checkpoint/estimate path) must hold exactly the
					// sums a fold of the list so far produces.
					mid, _ := task.New(tc)
					for _, j := range ldprand.Perm(rng, nShards) {
						if err := mid.Merge(shards[j].Snapshot()); err != nil {
							t.Fatal(err)
						}
					}
					midAgg := mid.(*Aggregator)
					wantSums := make([]int64, len(midAgg.cands))
					for _, r := range halfList {
						mech.FoldSupport(r, midAgg.cands, wantSums)
					}
					for k := range wantSums {
						if midAgg.tally.Cells[k] != wantSums[k] {
							t.Fatalf("trial %d round %d: mid-round merged sum[%d] = %d, reference fold %d",
								trial, round, k, midAgg.tally.Cells[k], wantSums[k])
						}
					}
					if midAgg.RoundReports() != half {
						t.Fatalf("trial %d round %d: mid-round reports %d want %d", trial, round, midAgg.RoundReports(), half)
					}
				}
			}
			// Close the round through a random-order merge of the shards
			// — exactly what the sharded Advance does.
			merged, _ := task.New(tc)
			for _, j := range ldprand.Perm(rng, nShards) {
				if err := merged.Merge(shards[j].Snapshot()); err != nil {
					t.Fatal(err)
				}
			}
			if err := merged.(task.Phased).Advance(); err != nil {
				t.Fatal(err)
			}
			refSurvivors = referenceSurvivors(p, mech, round, refSurvivors, list)
			got := merged.(*Aggregator).survivors
			if len(got) != len(refSurvivors) {
				t.Fatalf("trial %d round %d: %d survivors, reference %d", trial, round, len(got), len(refSurvivors))
			}
			for i := range got {
				// Exact float equality is the point: integer support sums
				// debias to the same float64s whatever the arrival, shard
				// or merge order.
				if got[i] != refSurvivors[i] {
					t.Fatalf("trial %d round %d survivor %d: accumulator %+v, list reference %+v",
						trial, round, i, got[i], refSurvivors[i])
				}
			}
			for i := range shards {
				if err := shards[i].(task.Phased).AdoptPhase(merged); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// stateFields is the binary state layout field by field, so tests can
// decode a sound state, corrupt one field and re-encode it.
type stateFields struct {
	version                 byte
	mechanism               string
	epsilon                 float64
	bits, levels, k, budget int
	round                   int
	done                    bool
	prevUsers               int
	survivors               []Prefix
	roundReports            int
	sums                    []int64
	hits                    []Prefix
}

func decodeFields(t testing.TB, blob []byte) stateFields {
	t.Helper()
	r := binenc.NewReader(blob)
	f := stateFields{version: r.Byte(), mechanism: r.String(), epsilon: r.Float64()}
	f.bits, f.levels, f.k, f.budget = int(r.Varint()), int(r.Varint()), int(r.Varint()), int(r.Varint())
	f.round, f.done, f.prevUsers = int(r.Varint()), r.Byte() != 0, int(r.Varint())
	f.survivors = readPrefixes(r)
	f.roundReports, f.sums = int(r.Varint()), r.Int64s()
	f.hits = readPrefixes(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.encode(), blob) {
		t.Fatal("re-encoding the decoded fields does not reproduce the state")
	}
	return f
}

func (f stateFields) encode() []byte {
	w := binenc.NewWriter()
	defer w.Release()
	w.Byte(f.version)
	w.String(f.mechanism)
	w.Float64(f.epsilon)
	for _, v := range []int{f.bits, f.levels, f.k, f.budget, f.round} {
		w.Varint(int64(v))
	}
	if f.done {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
	w.Varint(int64(f.prevUsers))
	writePrefixes(w, f.survivors)
	w.Varint(int64(f.roundReports))
	w.Int64s(f.sums)
	writePrefixes(w, f.hits)
	return append([]byte(nil), w.Bytes()...)
}

// TestStateVersionGuards pins the state decoder's refusals: unknown
// versions, foreign parameters, a protocol position that breaks
// done ⇔ round == levels, and support sums no report multiset could
// produce are all corrupt. The forgeries are one-field edits of the
// frozen fixture (round 1, 120 reports over 16 candidates), and each
// must leave a populated receiver byte for byte as it was.
func TestStateVersionGuards(t *testing.T) {
	golden := fixture(t, "state.bin")
	sums := func(f *stateFields, first int64) {
		f.sums = append([]int64(nil), f.sums...)
		f.sums[0] = first
	}
	cases := map[string]func(*stateFields){
		"future version":           func(f *stateFields) { f.version = 3 },
		"report-list version":      func(f *stateFields) { f.version = 0 },
		"another mechanism":        func(f *stateFields) { f.mechanism = "TreeHist" },
		"another epsilon":          func(f *stateFields) { f.epsilon++ },
		"another level count":      func(f *stateFields) { f.levels++ },
		"another candidate budget": func(f *stateFields) { f.budget = 5 },
		"negative round":           func(f *stateFields) { f.round = -1 },
		"round past the last":      func(f *stateFields) { f.round = f.levels + 1 },
		"final round not done":     func(f *stateFields) { f.round = f.levels },
		"done mid-protocol":        func(f *stateFields) { f.done = true },
		"done with in-flight sums": func(f *stateFields) { f.round, f.done = f.levels, true },
		"sums width mismatch":      func(f *stateFields) { f.sums = []int64{1, 2} },
		"sum above round_reports":  func(f *stateFields) { sums(f, 999) },
		"negative sum":             func(f *stateFields) { sums(f, -1) },
		"negative round_reports":   func(f *stateFields) { f.roundReports = -4 },
		"reports without sums":     func(f *stateFields) { f.sums = nil },
	}
	a, _ := task.New(cfg())
	if err := a.UnmarshalState(golden); err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range cases {
		f := decodeFields(t, golden)
		corrupt(&f)
		if err := a.UnmarshalState(f.encode()); err == nil {
			t.Errorf("%s: corrupt state restored without error", name)
		}
		if after, err := a.MarshalState(); err != nil || !bytes.Equal(after, golden) {
			t.Errorf("%s: refused restore mutated the receiver (%v)", name, err)
		}
	}
	// An idle round may omit its all-zero sums; the decoder re-sizes them.
	f := decodeFields(t, golden)
	f.roundReports, f.sums = 0, nil
	if err := a.UnmarshalState(f.encode()); err != nil {
		t.Errorf("idle round without sums refused: %v", err)
	}
}

// TestRoundMemoryBounded is the bounded-round-memory regression: a
// million reports streamed into one round must leave the aggregator's
// heap footprint at the candidate-proportional constant the accumulator
// guarantees, nowhere near the ~16 MiB a per-report list would hold.
// (The pre-accumulator adapter fails this by an order of magnitude.)
func TestRoundMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 1e6 reports; skipped in -short")
	}
	a, _ := task.New(cfg())
	client, err := NewClient(2, 8, 4, ldprand.NewSplitMix64(97))
	if err != nil {
		t.Fatal(err)
	}
	// Pre-generate one batch of envelopes and cycle it: the synthetic
	// stream's allocations must not be attributed to the aggregator.
	batch := make([]json.RawMessage, 1024)
	for i := range batch {
		if batch[i], err = client.Report(uint64(i%256), 0); err != nil {
			t.Fatal(err)
		}
	}

	const target = 1_000_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	total := 0
	for total < target {
		n, err := a.AddBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)

	// The accumulator holds O(candidates) integers — a few hundred
	// bytes here. The ceiling leaves generous slack for runtime noise
	// while sitting far below the ≥ 16 MiB (1e6 × 16-byte LHReport)
	// the report list this replaced would retain.
	const ceiling = 4 << 20
	if grown > ceiling {
		t.Fatalf("hh aggregator grew the heap by %d bytes over a %d-report round (ceiling %d)", grown, total, ceiling)
	}
	if a.Collected() != total || a.(task.Phased).RoundReports() != total {
		t.Fatalf("counters after stream: collected %d round %d want %d", a.Collected(), a.(task.Phased).RoundReports(), total)
	}
	if err := a.(task.Phased).Advance(); err != nil {
		t.Fatal(err)
	}
	if got := a.(*Aggregator).survivors; len(got) == 0 {
		t.Fatal("no survivors after the streamed round")
	}
}
