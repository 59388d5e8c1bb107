package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/binenc"
	"repro/internal/hashutil"
	"repro/internal/task"
)

// ErrNotPhased is returned by the phase surface (Frontier, Advance) of
// a collection whose task is one-shot; HTTP maps it to a client error.
var ErrNotPhased = errors.New("core: collection task is not phased")

// ShardedAggregator spreads privatized report envelopes across N
// independent per-shard task aggregators behind striped locks, so
// ingestion scales with cores instead of serializing on one mutex.
// Correctness rests on the mergeability every task.Aggregator
// guarantees: the accumulators are linear (count or sum vectors), so
// any shard can absorb any envelope and a Merge of the shards is
// exactly the state a single aggregator would have reached aggregating
// every report itself.
//
// Envelopes are hash-routed by payload fingerprint, with a rotating
// stripe mixed in so that repeats of one hot payload (common for GRR
// under large ε, where most clients report the true mode) still spread
// across shards instead of serializing on one lock.
type ShardedAggregator struct {
	cfg    task.Config
	shards []*shard
	seq    atomic.Uint64 // rotating stripe for repeated payloads

	// reportBits is the task's per-report payload size, a constant of
	// the configuration captured at construction so ReportBits (which
	// /status and the collection listing read) never touches a shard
	// lock.
	reportBits int

	// proto is the aggregator shard 0 was built with. Its Translate and
	// PrepareBinary read nothing but immutable configuration (the
	// task.Preparer contract), so they run OUTSIDE the shard locks
	// without synchronization and their values fold into any shard.
	proto task.Preparer

	// collected counts accepted reports across all shards, maintained
	// atomically so Collected — which backs every /status hit and the
	// collection listing — never takes the shard locks. It is advanced
	// after the owning shard lock is released, so a reader can trail an
	// in-flight Add by one report, never lead it; once ingestion
	// quiesces it equals the lock-walk sum exactly (collectedWalk pins
	// this in tests).
	collected atomic.Int64

	// epoch counts state mutations (accepted reports, resets,
	// restores). MergedCached compares it against the epoch of the
	// last merge to decide whether the cached merged aggregator is
	// still exact, so an idle collection answers estimates without
	// re-merging every shard.
	epoch      atomic.Uint64
	mergeCount atomic.Uint64 // full merges performed, for tests/observability

	// readMu guards the two read-side caches. cached is the merged
	// snapshot MergedCached publishes (read-only once published).
	// estCache holds serialized estimate payloads keyed by
	// canonicalized query string, valid for one ingestion epoch, so
	// analysts polling the same ?top=k or ?item= query against an idle
	// collection re-serialize nothing. The lock is held across a
	// re-merge (so a burst of readers merges once) but never across a
	// task Estimate.
	readMu      sync.Mutex
	cached      task.Aggregator
	cachedEpoch uint64
	estCache    map[string]estEntry
	estEpoch    uint64
	estHits     atomic.Uint64 // cache hits, for tests/observability

	// phased is set when the task implements task.Phased — the
	// collection runs an interactive multi-round protocol and this
	// layer coordinates its round boundaries across shards.
	phased bool
	// phaseMu serializes round advances (manual and quota-driven) — two
	// requests crossing the quota together advance one round, not two —
	// and excludes shard-walking readers (Merged) from the window in
	// which an advance rewrites every shard: without it a reader could
	// combine one shard from round r with another from r+1 — a torn
	// round that would fail the merge and, worse, fail a checkpoint
	// racing the advance.
	phaseMu sync.RWMutex
	// round/done/roundStart mirror the shards' phase so /status and
	// quota checks never take a shard lock. roundStart is the value of
	// collected when the current round opened; collected-roundStart is
	// the round's report count. (Because collected is advanced after
	// the owning shard lock is released, a report racing the advance
	// can be attributed to the next round's count — a one-report drift
	// in the quota arithmetic, never in the aggregate itself.)
	round      atomic.Int64
	done       atomic.Bool
	roundStart atomic.Int64
}

// estEntry is one cached estimate response plus the report count the
// estimate was computed over (served alongside it by /estimate).
type estEntry struct {
	payload json.RawMessage
	reports int
}

// shard pairs one task aggregator with its stripe lock. The lock is
// taken once per chunk of up to batchChunk reports and held for the
// chunk's folds — 1.5 ms for a 500-report OLH d=1024 batch (3.0 µs a
// report in ldpload's traced run), 0.07 ms for 100 CMS 1024-wide rows —
// so false sharing between neighbouring mutexes is lost in the fold
// time and the struct stays unpadded.
type shard struct {
	mu  sync.Mutex
	agg task.Aggregator
}

// NewShardedAggregator builds a sharded aggregator for the task
// configuration (cfg.Type() picks the adapter from the task registry).
// shards <= 0 selects GOMAXPROCS.
func NewShardedAggregator(cfg task.Config, shards int) (*ShardedAggregator, error) {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	a := &ShardedAggregator{
		cfg:    cfg,
		shards: make([]*shard, shards),
	}
	for i := range a.shards {
		agg, err := task.New(cfg)
		if err != nil {
			return nil, err
		}
		a.shards[i] = &shard{agg: agg}
	}
	proto := a.shards[0].agg
	a.reportBits = proto.ReportBits()
	a.proto = proto
	_, a.phased = proto.(task.Phased)
	return a, nil
}

// TaskType returns the task type name the aggregator serves.
func (a *ShardedAggregator) TaskType() string { return a.cfg.Type() }

// Shards returns the number of shards.
func (a *ShardedAggregator) Shards() int { return len(a.shards) }

// route picks the shard index for one envelope: a payload fingerprint
// mixed with a rotating stripe (see the type comment for why both).
func (a *ShardedAggregator) route(raw json.RawMessage) int {
	h := fingerprint(raw) ^ a.seq.Add(1)*0x9e3779b97f4a7c15
	return hashutil.Range(h, len(a.shards))
}

// fingerprintTail bounds how much of the payload the routing
// fingerprint reads. Routing only needs spread, not collision
// resistance — the rotating stripe already guarantees liveness — so
// hashing entire multi-kilobyte payloads (SHE vectors, UE bit rows)
// would cost more than the aggregation it is routing. The tail is
// where payloads differ (values follow the fixed mechanism prefix).
const fingerprintTail = 64

// fingerprint mixes the envelope's trailing bytes and length into one
// word, decorrelating distinct payloads from arrival order.
func fingerprint(raw json.RawMessage) uint64 {
	tail := raw
	if len(tail) > fingerprintTail {
		tail = tail[len(tail)-fingerprintTail:]
	}
	return hashutil.Hash64(0x5ca1ab1e^uint64(len(raw)), tail)
}

// batchChunk bounds how long one stripe lock is held: a large batch is
// aggregated in chunks, each routed independently, so a single 8 MiB
// batch of tiny envelopes cannot pin one shard (stalling the reports
// hash-routed there and the snapshot pass of a concurrent estimate)
// for its entire aggregation.
const batchChunk = 1024

// maxBatchErrors bounds how many per-envelope rejections the joined
// AddBatch error spells out. A batch can hold hundreds of thousands of
// envelopes, and a systematically misconfigured client (wrong domain,
// wrong mechanism) rejects all of them — an unbounded join would build
// a multi-megabyte error string that HTTP handlers then echo into the
// response body. The first few rejections carry all the signal.
const maxBatchErrors = 16

// rejection is one envelope's entry in the joined batch error.
type rejection struct {
	idx int // index in the batch
	err error
}

func (r rejection) Error() string { return fmt.Sprintf("envelope %d: %v", r.idx, r.err) }
func (r rejection) Unwrap() error { return r.err }

// soleRejection strips the batch framing from the outcome of a batch
// of one: the single-report routes answer with the report's own error,
// not "envelope 0: ...".
func soleRejection(err error) error {
	var r rejection
	if errors.As(err, &r) {
		return r.err
	}
	return err
}

// Add validates and folds one JSON envelope: a batch of one.
func (a *ShardedAggregator) Add(raw json.RawMessage) error {
	_, err := a.AddBatch([]json.RawMessage{raw})
	return soleRejection(err)
}

// AddBatch folds a batch of JSON envelopes, translated (see translate).
func (a *ShardedAggregator) AddBatch(batch []json.RawMessage) (int, error) {
	t := a.translate(batch)
	defer t.w.Release()
	n, err := a.AddBatchBinary(t.bins)
	return n, a.explain(batch, t.bins, err)
}

// translation is a batch of JSON envelopes as the task's binary
// payloads, views of one pooled buffer w. An envelope that did not
// translate has an empty payload, which every PrepareBinary refuses;
// its error is not kept (see explain).
type translation struct {
	w    *binenc.Writer
	bins [][]byte
}

// translate turns a batch of JSON envelopes into a translation. It runs
// outside every lock; the caller releases w after the fold.
func (a *ShardedAggregator) translate(envs []json.RawMessage) translation {
	t := translation{w: binenc.NewWriter(), bins: make([][]byte, len(envs))}
	for i, env := range envs {
		start := t.w.Len()
		if a.proto.Translate(t.w, env) != nil {
			t.w.Truncate(start)
		}
		end := t.w.Len() // capped there: later appends never write into the view
		t.bins[i] = t.w.Bytes()[start:end:end]
	}
	return t
}

// explain puts each untranslated envelope's own error in place of
// PrepareBinary's refusal of its empty payload in a batch's joined
// error; positions, count and summary are unchanged. The error comes
// from translating the envelope again: the joined error names at most
// maxBatchErrors envelopes, so a batch of any size keeps at most that
// many errors alive.
func (a *ShardedAggregator) explain(envs []json.RawMessage, bins [][]byte, err error) error {
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		return err
	}
	errs := slices.Clone(joined.Unwrap())
	var w binenc.Writer
	for i, e := range errs {
		if r, ok := e.(rejection); ok && len(bins[r.idx]) == 0 {
			if terr := a.proto.Translate(&w, envs[r.idx]); terr != nil {
				errs[i] = rejection{idx: r.idx, err: terr}
			}
			w.Reset()
		}
	}
	return errors.Join(errs...)
}

// AddBatchBinary is the one route a report takes into a shard, whatever
// its encoding and whether it arrived alone or in a batch. The batch is
// folded chunk by chunk: one route and one lock acquisition per chunk
// (the whole point of batching — per-report locking overhead amortizes
// to nearly zero) while the rotating stripe spreads chunks and
// successive batches across shards. Any shard can absorb any envelope,
// so placement never affects the merged estimate. Payloads are decoded
// before their chunk's lock is taken and only the folds run under it,
// so concurrent batches contend on vector adds, never on decoding. The
// batch is not atomic: invalid envelopes are skipped and reported via
// the joined error (detailed up to maxBatchErrors, then summarized)
// while the valid remainder is still aggregated.
func (a *ShardedAggregator) AddBatchBinary(batch [][]byte) (int, error) {
	accepted, suppressed := 0, 0
	var errs []error
	reject := func(i int, err error) {
		if len(errs) < maxBatchErrors {
			errs = append(errs, rejection{idx: i, err: err})
		} else {
			suppressed++
		}
	}
	type preparedReport struct {
		idx int // index in batch, for accurate rejection errors
		val any
	}
	var prepared []preparedReport // reused across chunks
	for off := 0; off < len(batch); off += batchChunk {
		end := min(off+batchChunk, len(batch))
		sh := a.shards[a.route(batch[off])]
		prepared = prepared[:0]
		for i := off; i < end; i++ {
			v, err := a.proto.PrepareBinary(batch[i])
			if err != nil {
				reject(i, err)
				continue
			}
			prepared = append(prepared, preparedReport{idx: i, val: v})
		}
		sh.mu.Lock()
		// Read under the lock: a round advance replaces shard 0's
		// aggregator while holding every shard lock.
		agg := sh.agg
		for _, p := range prepared {
			// What Fold rejects (a phased task's wrong-round report)
			// drops that one report only.
			if err := agg.Fold(p.val); err != nil {
				reject(p.idx, err)
				continue
			}
			accepted++
		}
		sh.mu.Unlock()
	}
	if accepted > 0 {
		a.collected.Add(int64(accepted))
		a.epoch.Add(uint64(accepted))
	}
	if suppressed > 0 {
		errs = append(errs, fmt.Errorf("and %d more rejected envelopes", suppressed))
	}
	return accepted, errors.Join(errs...)
}

// ReportBits returns the task's per-report payload size, a constant of
// the configuration captured at construction — no shard lock is taken,
// so /status and the collection listing never contend with ingestion.
func (a *ShardedAggregator) ReportBits() int { return a.reportBits }

// Collected returns the total number of accepted reports, from the
// atomic counter — no shard lock is taken, so status polling never
// contends with ingestion.
func (a *ShardedAggregator) Collected() int {
	return int(a.collected.Load())
}

// collectedWalk sums the per-shard report counts under their locks:
// the ground truth the atomic counter mirrors, kept for tests.
func (a *ShardedAggregator) collectedWalk() int {
	total := 0
	for _, s := range a.shards {
		s.mu.Lock()
		total += s.agg.Collected()
		s.mu.Unlock()
	}
	return total
}

// Merged returns a fresh aggregator holding the combined state of
// every shard. Each shard is snapshotted under its own lock (a cheap
// deep copy) and merged outside it, so ingestion stalls only for the
// copy, not for the merge. The result is an independent
// consistent-enough view: reports racing with the call land in either
// this merge or the next, never half in one shard.
func (a *ShardedAggregator) Merged() (task.Aggregator, error) {
	merged, err := task.New(a.cfg)
	if err != nil {
		return nil, err
	}
	// The phase read-lock keeps the walk on one side of any concurrent
	// round advance: shard locks are taken one at a time here, and for
	// a phased task a walk interleaved with the advance's all-shard
	// rewrite would pair shards from different rounds — an unmergeable
	// (and uncheckpointable) torn view.
	a.phaseMu.RLock()
	defer a.phaseMu.RUnlock()
	for _, s := range a.shards {
		s.mu.Lock()
		snap := s.agg.Snapshot()
		s.mu.Unlock()
		if err := merged.Merge(snap); err != nil {
			return nil, err
		}
	}
	a.mergeCount.Add(1)
	return merged, nil
}

// MergedCached returns a merged view of the shards, reusing the last
// merge while the ingestion epoch is unchanged. The returned
// aggregator is shared between callers and must be treated as
// read-only (estimate reads allocate their own output, so concurrent
// reads are safe); callers that intend to mutate should use Merged.
//
// The epoch is read before the shards are walked: reports racing with
// the merge may or may not be included in the cached view, but they
// always advance the epoch past the recorded one, so the next call
// re-merges rather than serving them stale forever.
func (a *ShardedAggregator) MergedCached() (task.Aggregator, error) {
	a.readMu.Lock()
	defer a.readMu.Unlock()
	// Loaded after taking the cache lock (but still before the merge),
	// so a burst of concurrent readers behind one in-flight merge all
	// observe the merger's epoch and reuse its result, instead of each
	// arriving with an older epoch and re-merging in turn.
	epoch := a.epoch.Load()
	if a.cached != nil && a.cachedEpoch == epoch {
		return a.cached, nil
	}
	merged, err := a.Merged()
	if err != nil {
		return nil, err
	}
	a.cached = merged
	a.cachedEpoch = epoch
	return merged, nil
}

// maxEstCacheEntries bounds the per-query estimate cache: an analyst
// sweeping a parameter (?item=a, ?item=b, ...) within one epoch would
// otherwise grow the map without limit. Past the cap the whole cache
// resets — by then the hot queries have been re-cached anyway.
const maxEstCacheEntries = 256

// internalError marks a server-side failure crossing the Estimate
// surface — a shard merge gone wrong, not a bad analyst query — so the
// HTTP layer answers 500 instead of blaming the request with 400.
type internalError struct{ err error }

func (e *internalError) Error() string { return e.err.Error() }
func (e *internalError) Unwrap() error { return e.err }

// IsInternal reports whether an error from the estimate surface is a
// server-side failure rather than a query error.
func IsInternal(err error) bool {
	var ie *internalError
	return errors.As(err, &ie)
}

// Estimate answers one task-defined analyst query against the cached
// merged view.
func (a *ShardedAggregator) Estimate(query map[string][]string) (json.RawMessage, error) {
	est, _, err := a.EstimateCached(query)
	return est, err
}

// EstimateCached answers one analyst query, returning the serialized
// task estimate plus the report count it was computed over. Responses
// are cached by (ingestion epoch, canonicalized query string):
// repeated reads of the same query against an unchanged collection —
// the common analyst polling pattern — reuse the serialized payload
// instead of re-ranking and re-encoding it on every hit. Any state
// mutation (a report, a reset, a round advance) moves the epoch and
// invalidates the cache wholesale.
func (a *ShardedAggregator) EstimateCached(query map[string][]string) (json.RawMessage, int, error) {
	// url.Values.Encode sorts by key, so query-string permutations of
	// one logical query share a cache entry.
	key := url.Values(query).Encode()
	epoch := a.epoch.Load()
	a.readMu.Lock()
	if a.estEpoch == epoch {
		if e, ok := a.estCache[key]; ok {
			a.estHits.Add(1)
			a.readMu.Unlock()
			return e.payload, e.reports, nil
		}
	}
	a.readMu.Unlock()

	merged, err := a.MergedCached()
	if err != nil {
		return nil, 0, &internalError{err} // shard state, not the query
	}
	est, err := merged.Estimate(query)
	if err != nil {
		return nil, 0, err // task query error: the analyst can fix it
	}
	reports := merged.Collected()

	a.readMu.Lock()
	// Entries are stored under the epoch read before the merge: the
	// merge may have absorbed newer reports, making the entry fresher
	// than its key claims, never staler. A concurrent query that
	// already advanced the cache past our epoch wins — overwriting a
	// newer cache generation with an older key would only waste it.
	if epoch >= a.estEpoch {
		if a.estEpoch != epoch || a.estCache == nil || len(a.estCache) >= maxEstCacheEntries {
			a.estCache = make(map[string]estEntry)
			a.estEpoch = epoch
		}
		a.estCache[key] = estEntry{payload: est, reports: reports}
	}
	a.readMu.Unlock()
	return est, reports, nil
}

// Epoch returns the current ingestion epoch: a counter advanced by
// every accepted report, reset and restore. Equal epochs across two
// observations mean the aggregate state is unchanged between them.
func (a *ShardedAggregator) Epoch() uint64 { return a.epoch.Load() }

// MergeCount returns how many full shard merges have run, exposed so
// tests (and curious operators) can verify the epoch cache is working.
func (a *ShardedAggregator) MergeCount() uint64 { return a.mergeCount.Load() }

// MarshalState serializes the aggregator's combined state as one task
// state blob (see task.Aggregator.MarshalState). Shard layout is
// deliberately not preserved: merging is exact, so the combined state
// is the whole truth and restores cleanly into any shard count.
func (a *ShardedAggregator) MarshalState() ([]byte, error) {
	merged, err := a.MergedCached()
	if err != nil {
		return nil, err
	}
	return merged.MarshalState()
}

// RestoreState loads a state blob produced by MarshalState into the
// aggregator, which must be empty (restore happens at startup, before
// ingestion begins — restoring over live data would double-count).
// The whole restored aggregate lands in shard 0; subsequent ingestion
// spreads over all shards as usual, and merging re-combines both. For
// a phased task the other shards additionally adopt shard 0's round
// position, so every shard validates report rounds identically from
// the first post-restore request.
func (a *ShardedAggregator) RestoreState(data []byte) error {
	if a.Collected() != 0 || a.collectedWalk() != 0 {
		return errors.New("core: cannot restore state into a non-empty aggregator")
	}
	s := a.shards[0]
	s.mu.Lock()
	err := s.agg.UnmarshalState(data)
	restored := s.agg.Collected()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if a.phased {
		p := s.agg.(task.Phased)
		for _, o := range a.shards[1:] {
			o.mu.Lock()
			err := o.agg.(task.Phased).AdoptPhase(s.agg)
			o.mu.Unlock()
			if err != nil {
				return err
			}
		}
		a.round.Store(int64(p.Round()))
		a.done.Store(p.Done())
		// roundStart derives from collected - RoundReports(): reports of
		// the in-flight round are part of the restored total, the rest
		// belong to completed rounds. The task's round counter is the
		// authority here — it stays exact whether the task restored a
		// report list or a counter-based accumulator — so /status
		// round_reports and quota arithmetic survive a restart unchanged.
		a.roundStart.Store(int64(restored - p.RoundReports()))
	}
	a.collected.Store(int64(restored))
	a.epoch.Add(1)
	return nil
}

// Reset discards all aggregated reports in every shard; a phased task
// restarts its protocol from round 0.
func (a *ShardedAggregator) Reset() {
	for _, s := range a.shards {
		s.mu.Lock()
		s.agg.Reset()
		s.mu.Unlock()
	}
	a.collected.Store(0)
	a.round.Store(0)
	a.done.Store(false)
	a.roundStart.Store(0)
	a.epoch.Add(1)
}

// Phased reports whether the collection's task runs an interactive
// multi-round protocol (implements task.Phased).
func (a *ShardedAggregator) Phased() bool { return a.phased }

// Round returns the phased task's current round (0 for one-shot
// tasks), from an atomic mirror — no shard lock is taken, so /status
// never contends with ingestion.
func (a *ShardedAggregator) Round() int { return int(a.round.Load()) }

// Done reports whether a phased task has completed all rounds.
func (a *ShardedAggregator) Done() bool { return a.done.Load() }

// RoundReports returns how many reports the current round has
// accepted, the quantity auto-advance quotas compare against.
func (a *ShardedAggregator) RoundReports() int {
	return int(a.collected.Load() - a.roundStart.Load())
}

// Frontier returns the phased task's published round state (see
// task.Phased). The phase — round position, surviving candidates,
// terminal results — is replicated into every shard at each round
// boundary, so shard 0 alone answers authoritatively under its own
// lock: polling the frontier during heavy ingestion never merges (or
// even reads) the accumulated report history.
func (a *ShardedAggregator) Frontier() (json.RawMessage, error) {
	if !a.phased {
		return nil, ErrNotPhased
	}
	a.phaseMu.RLock()
	defer a.phaseMu.RUnlock()
	s := a.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.agg.(task.Phased).Frontier()
}

// Advance closes the phased task's current round across every shard:
// the shards are merged (the same exact-Merge machinery estimates and
// checkpoints use), the round boundary is computed once on the merged
// state, and the shards are re-seeded for the next round. Reports
// racing the call land wholly in the old round or wholly in the new
// one (where the round tag then rejects them), never split.
func (a *ShardedAggregator) Advance() error {
	return a.AdvanceExpecting(-1)
}

// AdvanceExpecting advances like Advance, but only if the current
// round equals expect (pass -1 to advance unconditionally). A
// mismatch returns an error wrapping task.ErrWrongRound without
// touching the round: the caller's view of the protocol is stale —
// typically a second driver already closed the round — and advancing
// again would burn an empty round. The check runs under the exclusive
// phase lock, so concurrent drivers expecting the same round advance
// it exactly once.
func (a *ShardedAggregator) AdvanceExpecting(expect int) error {
	if !a.phased {
		return ErrNotPhased
	}
	a.phaseMu.Lock()
	defer a.phaseMu.Unlock()
	if cur := a.Round(); expect >= 0 && cur != expect {
		return fmt.Errorf("core: advance expected round %d but the collection is at round %d: %w",
			expect, cur, task.ErrWrongRound)
	}
	return a.advanceLocked()
}

// MaybeAdvance advances the round iff the current round has accepted
// at least quota reports and the protocol is not done, reporting
// whether it advanced. The re-check runs under the exclusive phase
// lock, so concurrent reports crossing the quota together advance one
// round, not one each.
func (a *ShardedAggregator) MaybeAdvance(quota int) (bool, error) {
	if !a.phased || quota <= 0 {
		return false, nil
	}
	// Lock-free pre-check: the serving layer calls this after every
	// accepted report, and funnelling each one through the
	// collection-global phase lock just to compare two atomics
	// would re-serialize the ingest path the shard striping
	// parallelizes. Reports racing the check land on the next call.
	if a.done.Load() || a.RoundReports() < quota {
		return false, nil
	}
	a.phaseMu.Lock()
	defer a.phaseMu.Unlock()
	if a.done.Load() || a.RoundReports() < quota {
		return false, nil
	}
	if err := a.advanceLocked(); err != nil {
		return false, err
	}
	return true, nil
}

// NewDelta materializes a task state blob — the combined state another
// aggregator marshalled, typically a delta cut by a relay node — as a
// detached aggregator of this collection's configuration, ready for
// FoldDelta. No locks are taken: decoding runs outside every critical
// section, and the state layouts themselves are version-gated by the
// task codecs.
func (a *ShardedAggregator) NewDelta(state []byte) (task.Aggregator, error) {
	agg, err := task.New(a.cfg)
	if err != nil {
		return nil, err
	}
	if err := agg.UnmarshalState(state); err != nil {
		return nil, err
	}
	return agg, nil
}

// checkDelta verifies that a detached delta can fold into the
// collection: for a phased task it must sit at the collection's
// current round; anything else wraps task.ErrWrongRound (the relay's
// view of the frontier is stale — it refetches and re-cuts). The
// answer only holds while the round cannot move: FoldDelta asks under
// the phase read-lock, the write-ahead path (before it journals a
// merge frame) under the collection's shared WAL lock.
func (a *ShardedAggregator) checkDelta(delta task.Aggregator) error {
	if !a.phased {
		return nil
	}
	p, ok := delta.(task.Phased)
	if !ok {
		return fmt.Errorf("core: delta for phased %s collection carries no phase", a.cfg.Type())
	}
	if p.Round() != a.Round() || p.Done() != a.Done() {
		return fmt.Errorf("core: delta at round %d (done=%v) cannot merge into round %d (done=%v): %w",
			p.Round(), p.Done(), a.Round(), a.Done(), task.ErrWrongRound)
	}
	return nil
}

// FoldDelta merges a detached delta aggregator (NewDelta) into one
// shard under its stripe lock — the multi-node ingest path: a relay's
// whole flush folds with a single Merge, exactly as if every report in
// it had been posted here directly, because Merge is exact. The phase
// read-lock keeps the fold on one side of any concurrent round
// advance, so checkDelta and the merge see the same round.
//
// It returns the number of reports the delta carried. The delta is
// consumed: the shard's Merge may retain parts of its state.
func (a *ShardedAggregator) FoldDelta(delta task.Aggregator) (int, error) {
	n := delta.Collected()
	if n < 0 {
		return 0, fmt.Errorf("core: delta carries negative report count %d", n)
	}
	a.phaseMu.RLock()
	defer a.phaseMu.RUnlock()
	if err := a.checkDelta(delta); err != nil {
		return 0, err
	}
	s := a.shards[hashutil.Range(a.seq.Add(1)*0x9e3779b97f4a7c15, len(a.shards))]
	s.mu.Lock()
	err := s.agg.Merge(delta)
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	a.collected.Add(int64(n))
	a.epoch.Add(1)
	return n, nil
}

// Drain discards every shard's accumulated reports while keeping a
// phased task's protocol position — the relay-side half of a flush:
// the caller captures the merged state (Merged) and ships it upstream;
// Drain then empties the shards so the next flush carries only new
// reports. One-shot tasks reset outright (their Reset is exactly
// "drop tallies"); phased shards re-adopt their own current phase,
// which keeps round, survivors and terminal results but zeroes the
// round accumulator — a Reset would restart the protocol at round 0
// and desynchronize the relay from its upstream.
//
// Callers are responsible for not losing data: anything not captured
// before the call is gone. The collection layer runs capture and
// drain under one exclusive walMu section, so no report can land in
// between.
func (a *ShardedAggregator) Drain() error {
	a.phaseMu.Lock()
	defer a.phaseMu.Unlock()
	for _, s := range a.shards {
		// Same-rank sweep in canonical index order, as in advanceLocked.
		s.mu.Lock() //ldplint:ok lockorder all-shard sweep in canonical index order
	}
	defer func() {
		for _, s := range a.shards {
			s.mu.Unlock()
		}
	}()
	if a.phased {
		// Snapshot first: adopting from a sibling that was itself just
		// wiped would lose the phase.
		ref := a.shards[0].agg.Snapshot()
		for _, s := range a.shards {
			if err := s.agg.(task.Phased).AdoptPhase(ref); err != nil {
				return err
			}
		}
	} else {
		for _, s := range a.shards {
			s.agg.Reset()
		}
	}
	a.collected.Store(0)
	a.roundStart.Store(0)
	a.epoch.Add(1)
	return nil
}

// AdoptFrontier aligns every shard with a frontier published by
// another process's collection (task.FrontierAdopter) — how a relay
// mirrors its upstream's round. Any tallies still held are discarded
// (the caller flushes first; the collection layer couples the two
// under one exclusive walMu section). The round mirrors follow the
// adopted position, so /status, quota checks and report validation
// agree with the upstream from the first post-adopt request.
func (a *ShardedAggregator) AdoptFrontier(frontier json.RawMessage) error {
	if !a.phased {
		return ErrNotPhased
	}
	if _, ok := a.shards[0].agg.(task.FrontierAdopter); !ok {
		return fmt.Errorf("core: %s task cannot adopt a published frontier", a.cfg.Type())
	}
	a.phaseMu.Lock()
	defer a.phaseMu.Unlock()
	for _, s := range a.shards {
		s.mu.Lock() //ldplint:ok lockorder all-shard sweep in canonical index order
	}
	defer func() {
		for _, s := range a.shards {
			s.mu.Unlock()
		}
	}()
	// Every shard validates the same frontier against the same
	// parameters, so either all adopt or the first — and therefore
	// every — adoption fails with the shards unchanged.
	for _, s := range a.shards {
		if err := s.agg.(task.FrontierAdopter).AdoptFrontier(frontier); err != nil {
			return err
		}
	}
	p := a.shards[0].agg.(task.Phased)
	total := 0
	for _, s := range a.shards {
		total += s.agg.Collected()
	}
	a.round.Store(int64(p.Round()))
	a.done.Store(p.Done())
	a.collected.Store(int64(total))
	a.roundStart.Store(int64(total))
	a.epoch.Add(1)
	return nil
}

// advanceLocked computes one round boundary; the caller holds phaseMu
// exclusively. All shard locks are held together for the rewrite —
// ingestion pauses for the merge+prune, which is the round boundary's
// job description.
func (a *ShardedAggregator) advanceLocked() error {
	for _, s := range a.shards {
		// Same-rank sweep: every shard lock is taken in slice (index)
		// order, the one canonical order, so two sweeps cannot
		// deadlock — and ingestion only ever holds a single shard
		// lock at a time.
		s.mu.Lock() //ldplint:ok lockorder all-shard sweep in canonical index order
	}
	defer func() {
		for _, s := range a.shards {
			s.mu.Unlock()
		}
	}()
	merged, err := task.New(a.cfg)
	if err != nil {
		return err
	}
	for _, s := range a.shards {
		// Snapshot so the merged aggregator — which becomes shard 0's
		// live state below — cannot retain references into its
		// siblings, whatever the adapter's Merge keeps.
		if err := merged.Merge(s.agg.Snapshot()); err != nil {
			return err
		}
	}
	p := merged.(task.Phased)
	if err := p.Advance(); err != nil {
		return err // "protocol complete" — shards untouched
	}
	// The advanced merged aggregator becomes shard 0 — it carries the
	// full cross-round history — and the other shards adopt its phase
	// with empty tallies, so a walk over the shards still counts every
	// report exactly once. (proto, the aggregator shard 0 was built
	// with, stays valid — its decoders read only immutable
	// configuration, which every replacement shares — and keeps that
	// one object, with its round-0 accumulator, reachable.)
	a.shards[0].agg = merged
	for _, s := range a.shards[1:] {
		if err := s.agg.(task.Phased).AdoptPhase(merged); err != nil {
			return err
		}
	}
	a.round.Store(int64(p.Round()))
	a.done.Store(p.Done())
	a.roundStart.Store(a.collected.Load())
	a.epoch.Add(1)
	return nil
}
