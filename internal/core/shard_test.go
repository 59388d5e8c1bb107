package core

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/ldprand"
	"repro/internal/task/freqtask"
)

// shardParams uses a domain large enough that hash routing exercises
// every shard.
func shardParams() PrivacyParams { return PrivacyParams{Epsilon: 2, Domain: 32} }

// genEnvelopes deterministically privatizes n values through one
// seeded client, so tests can replay the identical report stream into
// different aggregation topologies.
func genEnvelopes(t testing.TB, mechanism string, n int, seed uint64) []freqtask.Envelope {
	t.Helper()
	client, err := NewClient(mechanism, shardParams(), ldprand.NewSplitMix64(seed))
	if err != nil {
		t.Fatal(err)
	}
	src := ldprand.NewSplitMix64(seed + 1)
	values := make([]int, n)
	for i := range values {
		values[i] = ldprand.Intn(src, shardParams().Domain)
	}
	envs := reportAll(t, client, values)
	return envs
}

// TestShardedMatchesSequentialUnderConcurrency is the core soundness
// claim of the sharded pipeline: N goroutines hammering AddBatch
// concurrently must leave the merged aggregator in exactly the state a
// single oracle reaches aggregating the same envelopes sequentially.
// The mechanisms checked all use integer-valued accumulators, so the
// comparison is exact (bit-identical estimates), not approximate.
// Run under `go test -race` to catch synchronization bugs.
func TestShardedMatchesSequentialUnderConcurrency(t *testing.T) {
	const (
		workers   = 8
		batches   = 10
		batchSize = 50
	)
	for _, name := range []string{MechanismGRR, MechanismOUE, MechanismOLH, freqtask.MechanismSS, freqtask.MechanismTHE} {
		name := name
		t.Run(name, func(t *testing.T) {
			envs := genEnvelopes(t, name, workers*batches*batchSize, 41)
			raws := rawEnvs(t, envs)

			// Sequential baseline: one aggregator, one order.
			seq, err := freqtask.New(FreqTaskConfig(name, shardParams()))
			if err != nil {
				t.Fatal(err)
			}
			for _, raw := range raws {
				if err := seq.Add(raw); err != nil {
					t.Fatal(err)
				}
			}

			agg, err := NewShardedAggregator(FreqTaskConfig(name, shardParams()), 4)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, workers*batches)
			for w := 0; w < workers; w++ {
				chunk := raws[w*batches*batchSize : (w+1)*batches*batchSize]
				wg.Add(1)
				go func() {
					defer wg.Done()
					for b := 0; b < batches; b++ {
						batch := chunk[b*batchSize : (b+1)*batchSize]
						if _, err := agg.AddBatch(batch); err != nil {
							errs <- err
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			if agg.Collected() != len(envs) {
				t.Fatalf("collected %d want %d", agg.Collected(), len(envs))
			}
			merged, err := agg.Merged()
			if err != nil {
				t.Fatal(err)
			}
			if merged.Collected() != seq.Collected() {
				t.Fatalf("merged collected %d, sequential %d", merged.Collected(), seq.Collected())
			}
			got, want := freqCounts(t, merged), freqCounts(t, seq)
			for v := range want {
				if got[v] != want[v] {
					t.Errorf("value %d: merged estimate %v != sequential %v", v, got[v], want[v])
				}
			}
		})
	}
}

// TestShardedConcurrentSinglesAndReads mixes Add, AddBatch, Merged and
// Collected calls from many goroutines; under -race this pins the
// striped-lock discipline, and the final count pins that no report is
// lost or double-counted.
func TestShardedConcurrentSinglesAndReads(t *testing.T) {
	const workers, per = 6, 200
	raws := rawEnvs(t, genEnvelopes(t, MechanismGRR, workers*per, 43))
	agg, err := NewShardedAggregator(FreqTaskConfig(MechanismGRR, shardParams()), 3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		chunk := raws[w*per : (w+1)*per]
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, e := range chunk {
				if w%2 == 0 {
					if err := agg.Add(e); err != nil {
						t.Error(err)
						return
					}
				} else if i%20 == 0 {
					if _, err := agg.AddBatch(chunk[i : i+20]); err != nil {
						t.Error(err)
						return
					}
				}
				if i%50 == 0 {
					// Concurrent reads must see a consistent merge.
					if _, err := agg.Merged(); err != nil {
						t.Error(err)
						return
					}
					_ = agg.Collected()
				}
			}
		}(w)
	}
	wg.Wait()
	if agg.Collected() != workers*per {
		t.Fatalf("collected %d want %d", agg.Collected(), workers*per)
	}
	// After ingestion quiesces the lock-free counter and the lock-walk
	// sum must agree exactly — the contract behind serving /status from
	// the atomic.
	if agg.Collected() != agg.collectedWalk() {
		t.Fatalf("atomic collected %d != lock-walk %d", agg.Collected(), agg.collectedWalk())
	}
}

// TestCollectedCounterMatchesLockWalk pins the /status fast path
// through every mutation: adds, batches (with rejects), restore and
// reset must keep the atomic counter equal to the per-shard lock-walk.
func TestCollectedCounterMatchesLockWalk(t *testing.T) {
	agg, err := NewShardedAggregator(FreqTaskConfig(MechanismGRR, shardParams()), 3)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		if a, w := agg.Collected(), agg.collectedWalk(); a != w {
			t.Fatalf("%s: atomic collected %d != lock-walk %d", stage, a, w)
		}
	}
	check("empty")
	raws := rawEnvs(t, genEnvelopes(t, MechanismGRR, 60, 59))
	for _, r := range raws[:20] {
		if err := agg.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	check("after adds")
	// A batch with rejects: only accepted envelopes may count.
	batch := append([]json.RawMessage{}, raws[20:40]...)
	batch = append(batch, mustRaw(t, freqtask.Envelope{Mechanism: "GRR", Value: 999}))
	if _, err := agg.AddBatch(batch); err == nil {
		t.Fatal("invalid envelope accepted")
	}
	check("after partial batch")
	if agg.Collected() != 40 {
		t.Fatalf("collected %d want 40", agg.Collected())
	}

	// Restore into a fresh aggregator must seed the counter.
	state, err := agg.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	agg2, err := NewShardedAggregator(FreqTaskConfig(MechanismGRR, shardParams()), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg2.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	if a, w := agg2.Collected(), agg2.collectedWalk(); a != 40 || a != w {
		t.Fatalf("restored: atomic %d lock-walk %d want 40", a, w)
	}
	agg2.Reset()
	if a, w := agg2.Collected(), agg2.collectedWalk(); a != 0 || a != w {
		t.Fatalf("reset: atomic %d lock-walk %d want 0", a, w)
	}
}

// TestShardedAggregatorRouting checks that hash routing actually
// spreads load: with many envelopes, every shard should receive a
// non-trivial share.
func TestShardedAggregatorRouting(t *testing.T) {
	const n = 4000
	raws := rawEnvs(t, genEnvelopes(t, MechanismGRR, n, 47))
	agg, err := NewShardedAggregator(FreqTaskConfig(MechanismGRR, shardParams()), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range raws {
		if err := agg.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range agg.shards {
		got := s.agg.Collected()
		if got < n/agg.Shards()/2 {
			t.Errorf("shard %d starved: %d of %d reports", i, got, n)
		}
	}
}

// TestShardedAggregatorBatchPartialAccept pins the documented non-
// atomic batch semantics: invalid envelopes are rejected and reported,
// valid ones still land.
func TestShardedAggregatorBatchPartialAccept(t *testing.T) {
	agg, err := NewShardedAggregator(FreqTaskConfig(MechanismGRR, shardParams()), 2)
	if err != nil {
		t.Fatal(err)
	}
	batch := []json.RawMessage{
		mustRaw(t, freqtask.Envelope{Mechanism: "GRR", Value: 3}),
		mustRaw(t, freqtask.Envelope{Mechanism: "GRR", Value: 999}), // out of domain
		mustRaw(t, freqtask.Envelope{Mechanism: "OLH", Value: 0}),   // wrong mechanism
		mustRaw(t, freqtask.Envelope{Mechanism: "GRR", Value: 5}),
	}
	accepted, err := agg.AddBatch(batch)
	if err == nil {
		t.Fatal("invalid envelopes accepted silently")
	}
	if accepted != 2 {
		t.Fatalf("accepted %d want 2", accepted)
	}
	if agg.Collected() != 2 {
		t.Fatalf("collected %d want 2", agg.Collected())
	}
	// Empty batch is a no-op.
	if n, err := agg.AddBatch(nil); n != 0 || err != nil {
		t.Fatalf("empty batch: %d, %v", n, err)
	}
}

// TestUntranslatedBatchHoldsNoErrors pins what a batch of envelopes
// that do not translate costs while it is folded: the payload views
// only, 24 bytes an envelope. Translation errors are not kept — the
// joined error re-derives the maxBatchErrors it names — so an 8 MiB
// body of `0,` (4 million envelopes, each refused with a ~200-byte
// error) cannot hold a gigabyte.
func TestUntranslatedBatchHoldsNoErrors(t *testing.T) {
	agg, err := NewShardedAggregator(FreqTaskConfig(MechanismGRR, shardParams()), 2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100_000
	envs := slices.Repeat([]json.RawMessage{json.RawMessage("0")}, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := agg.translate(envs)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if held := int64(after.HeapAlloc) - int64(before.HeapAlloc); held > 48*n {
		t.Errorf("translating %d refused envelopes holds %d bytes, want at most %d", n, held, 48*n)
	}
	runtime.KeepAlive(tr)
	tr.w.Release()

	accepted, err := agg.AddBatch(envs)
	if accepted != 0 || err == nil {
		t.Fatalf("accepted %d, err %v", accepted, err)
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "envelope 0: freqtask: bad envelope: json: cannot unmarshal number") ||
		!strings.HasSuffix(msg, fmt.Sprintf("and %d more rejected envelopes", n-maxBatchErrors)) {
		t.Errorf("joined error does not name the translation errors: %.200s", msg)
	}
}

// TestShardedAggregatorReset checks Reset clears every shard.
func TestShardedAggregatorReset(t *testing.T) {
	agg, err := NewShardedAggregator(FreqTaskConfig(MechanismOUE, shardParams()), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rawEnvs(t, genEnvelopes(t, MechanismOUE, 60, 53)) {
		if err := agg.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if agg.Collected() == 0 {
		t.Fatal("nothing collected before reset")
	}
	agg.Reset()
	if agg.Collected() != 0 {
		t.Fatalf("collected %d after reset", agg.Collected())
	}
	merged, err := agg.Merged()
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range freqCounts(t, merged) {
		if math.Abs(c) > 1e-12 {
			t.Fatalf("value %d: nonzero estimate %v after reset", v, c)
		}
	}
}

// TestShardedAggregatorDefaults checks the GOMAXPROCS default and
// accessors.
func TestShardedAggregatorDefaults(t *testing.T) {
	agg, err := NewShardedAggregator(FreqTaskConfig(MechanismGRR, shardParams()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Shards() < 1 {
		t.Fatalf("shards %d", agg.Shards())
	}
	if agg.TaskType() != "freq" {
		t.Fatalf("task type %q", agg.TaskType())
	}
	if _, err := NewShardedAggregator(FreqTaskConfig("NOPE", shardParams()), 2); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
}
