package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
)

// brokenAfter is the consecutive flush-cycle failure streak past which
// the relay latches "upstream broken" into /healthz — one flaky send
// stays quiet, a dead upstream does not.
const brokenAfter = 3

// DefaultFlushInterval is the relay flush cadence when the operator
// sets none.
const DefaultFlushInterval = 5 * time.Second

// Relay fronts a core.Service in relay mode: report traffic folds into
// the local sharded aggregator exactly as on a single node (same WAL,
// same dedup, same checkpoints), and a flusher periodically cuts the
// accumulated state into deltas it ships to the upstream aggregation
// node. Read routes that need the global view (/estimate, /frontier)
// proxy upstream; /status and /healthz stay local and carry the
// relay's flushing standing.
//
// Exactly-once, end to end: a report is acknowledged only after the
// local journal holds it; a cut is journaled (flush frame, fsynced)
// before the state leaves the aggregator; the cut delta is durable in
// the outbox before the cycle continues; and the upstream folds each
// delta's fixed idempotency key once. Every crash window in between
// replays to the same upstream state.
type Relay struct {
	svc   *core.Service
	store *core.Store // nil = memory-only (tests)
	up    *Upstream
	out   *Outbox

	// flushMu serializes flush cycles (the ticker, POST /flush, and
	// the pre-advance force flush); it is taken before any collection
	// WAL lock and held across the cut-and-send sequence so deltas
	// enter the outbox in cut order.
	flushMu sync.Mutex

	// relayMu guards the flush-standing counters below; it is a leaf —
	// nothing is acquired under it.
	relayMu  sync.Mutex
	flushed  map[string]time.Time
	mem      []core.Delta // deltas whose outbox write failed, retried next cycle
	failures int
	broken   bool
}

// NewRelay wires a relay around an existing service. It installs the
// service's relay status hook and, when a store is present, a
// checkpoint gate: a collection with a cut delta that is not yet
// durable in the outbox (its outbox write failed; the delta is held in
// memory and recoverable only from the journal's flush frame) must not
// checkpoint, or the truncation would erase that one recoverable copy.
// The caller separately installs the outbox flush sink on the Store
// BEFORE loading state (see FlushSink).
func NewRelay(svc *core.Service, store *core.Store, up *Upstream, out *Outbox) *Relay {
	r := &Relay{
		svc:     svc,
		store:   store,
		up:      up,
		out:     out,
		flushed: make(map[string]time.Time),
	}
	svc.SetRelayInfo(r.info)
	if store != nil {
		store.SetSaveGate(func(collection string) error {
			if n := r.unflushed(collection); n > 0 {
				return fmt.Errorf("cluster: %d cut delta(s) for %q await outbox persistence", n, collection)
			}
			return nil
		})
	}
	return r
}

// unflushed counts cut deltas for the collection still held only in
// memory (outbox write failed; the journal flush frame is their sole
// durable record).
func (r *Relay) unflushed(collection string) int {
	r.relayMu.Lock()
	defer r.relayMu.Unlock()
	n := 0
	for _, d := range r.mem {
		if d.Collection == collection {
			n++
		}
	}
	return n
}

// FlushSink returns the Store flush sink for an outbox: journal replay
// of a relay flush frame re-cuts the delta and re-persists it here
// under its original idempotency key (Put deduplicates against a file
// that already survived the crash).
func FlushSink(out *Outbox) core.FlushSink {
	return func(collection string, d core.Delta) error {
		return out.Put(d)
	}
}

// newDeltaID mints a fresh delta idempotency key.
func newDeltaID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("cluster: reading random delta id: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// info is the Service relay-status hook.
func (r *Relay) info(name string) *core.RelayInfo {
	c, ok := r.svc.Registry().Get(name)
	if !ok {
		return nil
	}
	pending, stranded := r.out.Counts(name)
	r.relayMu.Lock()
	last := r.flushed[name]
	failures, broken := r.failures, r.broken
	r.relayMu.Unlock()
	inf := &core.RelayInfo{
		Upstream:       r.up.Base(),
		PendingReports: c.Aggregator().Collected(),
		PendingDeltas:  pending,
		StrandedDeltas: stranded,
		FlushFailures:  failures,
		UpstreamBroken: broken,
	}
	if !last.IsZero() {
		inf.LastFlushUnix = last.Unix()
		inf.LastFlushAgeSeconds = time.Since(last).Seconds()
	}
	return inf
}

func (r *Relay) markFlushed(name string) {
	r.relayMu.Lock()
	r.flushed[name] = time.Now()
	r.failures = 0
	r.broken = false
	r.relayMu.Unlock()
}

func (r *Relay) recordFailure() {
	r.relayMu.Lock()
	r.failures++
	r.broken = r.failures >= brokenAfter
	r.relayMu.Unlock()
}

func (r *Relay) memAdd(d core.Delta) {
	r.relayMu.Lock()
	r.mem = append(r.mem, d)
	r.relayMu.Unlock()
}

func (r *Relay) memTake() []core.Delta {
	r.relayMu.Lock()
	mem := r.mem
	r.mem = nil
	r.relayMu.Unlock()
	return mem
}

// SyncCollections mirrors the upstream's collections locally: missing
// ones are created with the upstream's exact task configuration (so
// cut deltas pass the upstream's config check verbatim) and phased
// ones are aligned with the upstream frontier. AdvanceQuota is zeroed
// on the mirror — the upstream owns round closure; a relay must never
// advance on its own.
func (r *Relay) SyncCollections(ctx context.Context) error {
	cols, err := r.up.Collections(ctx)
	if err != nil {
		return err
	}
	reg := r.svc.Registry()
	var errs []error
	for _, st := range cols {
		cfg := st.Config
		cfg.AdvanceQuota = 0
		c, ok := reg.Get(st.Collection)
		if !ok {
			c, err = reg.Create(st.Collection, cfg)
			if err != nil {
				errs = append(errs, fmt.Errorf("mirror %q: %w", st.Collection, err))
				continue
			}
			if r.store != nil {
				// Journal before the first report, snapshot so the mirror
				// survives a restart — and roll the mirror back when either
				// fails: a relay collection accepting reports it cannot
				// make durable would break the exactly-once story, and the
				// next sync tick simply recreates it.
				if aerr := r.store.Attach(c); aerr != nil {
					reg.DeleteIfEmpty(c)
					errs = append(errs, fmt.Errorf("mirror %q: %w", st.Collection, aerr))
					continue
				}
				if serr := r.store.Save(reg, c); serr != nil {
					c.CloseJournal()
					if reg.DeleteIfEmpty(c) {
						if rerr := r.store.Remove(reg, st.Collection); rerr != nil {
							serr = errors.Join(serr, rerr)
						}
					}
					errs = append(errs, fmt.Errorf("mirror %q: %w", st.Collection, serr))
					continue
				}
			}
		}
		if c.Aggregator().Phased() {
			if perr := r.syncPhase(ctx, c); perr != nil {
				errs = append(errs, fmt.Errorf("align %q: %w", st.Collection, perr))
			}
		}
	}
	return errors.Join(errs...)
}

// syncPhase fetches the upstream frontier for c and realigns.
func (r *Relay) syncPhase(ctx context.Context, c *core.Collection) error {
	fr, err := r.up.Frontier(ctx, c.Name())
	if err != nil {
		return err
	}
	return r.alignPhase(c, fr)
}

// alignPhase brings a phased collection to the upstream's round. Any
// state accumulated at the old round is cut first — atomically with
// the adoption, so nothing accepted is silently dropped — and queued;
// if the upstream has truly moved on it will 409 the old-round delta
// and the sender strands it for the operator.
func (r *Relay) alignPhase(c *core.Collection, fr core.FrontierResponse) error {
	agg := c.Aggregator()
	if agg.Round() == fr.Round && agg.Done() == (fr.Phase == "done") {
		return nil
	}
	d, err := c.CutAndAdopt(newDeltaID(), fr.Frontier)
	if d != nil {
		if perr := r.out.Put(*d); perr != nil {
			r.memAdd(*d)
			log.Printf("cluster: outbox write for %q failed (delta held in memory, recoverable from the journal): %v", c.Name(), perr)
		}
	}
	return err
}

// Flush runs one full flush cycle: re-queue deltas whose outbox write
// failed, cut every collection with pending reports, then send the
// outbox in cut order. A transient upstream failure stops the sending
// (order is part of the contract) and counts toward the broken latch;
// permanent rejections strand the delta and continue. The error
// reports whatever went wrong; acknowledged data is never at risk —
// everything unsent stays in the outbox.
func (r *Relay) Flush(ctx context.Context) error {
	r.flushMu.Lock()
	defer r.flushMu.Unlock()
	var errs []error

	for _, d := range r.memTake() {
		if err := r.out.Put(d); err != nil {
			r.memAdd(d)
			errs = append(errs, err)
		}
	}

	for _, c := range r.svc.Registry().Collections() {
		if c.Aggregator().Collected() == 0 {
			continue
		}
		d, err := c.CutDelta(newDeltaID())
		if err != nil {
			errs = append(errs, fmt.Errorf("cut %q: %w", c.Name(), err))
			continue
		}
		if d == nil {
			continue
		}
		if err := r.out.Put(*d); err != nil {
			r.memAdd(*d)
			errs = append(errs, fmt.Errorf("outbox %q: %w", c.Name(), err))
		}
	}

	for _, e := range r.out.Pending() {
		_, blob, err := r.out.Load(e)
		if err != nil {
			if serr := r.out.Strand(e); serr != nil {
				errs = append(errs, serr)
			}
			errs = append(errs, fmt.Errorf("outbox entry %016x unreadable (stranded): %w", e.Seq, err))
			continue
		}
		_, err = r.up.Merge(ctx, e.Collection, blob, e.ID)
		switch {
		case err == nil:
			if rerr := r.out.Remove(e); rerr != nil {
				errs = append(errs, rerr)
			}
			r.markFlushed(e.Collection)
		case errors.Is(err, ErrUpstreamStale):
			// The upstream closed the delta's round while it waited.
			// Preserve the delta for the operator and realign the
			// collection so new reports land in the current round.
			if serr := r.out.Strand(e); serr != nil {
				errs = append(errs, serr)
			}
			errs = append(errs, fmt.Errorf("delta %s for %q stranded: %w", e.ID, e.Collection, err))
			if c, ok := r.svc.Registry().Get(e.Collection); ok && c.Aggregator().Phased() {
				if perr := r.syncPhase(ctx, c); perr != nil {
					errs = append(errs, perr)
				}
			}
		case errors.Is(err, ErrUpstreamRejected):
			if serr := r.out.Strand(e); serr != nil {
				errs = append(errs, serr)
			}
			errs = append(errs, fmt.Errorf("delta %s for %q stranded: %w", e.ID, e.Collection, err))
		default:
			r.recordFailure()
			errs = append(errs, err)
			return errors.Join(errs...)
		}
	}
	return errors.Join(errs...)
}

// Run is the relay's background loop: mirror the upstream's
// collections, then flush on every tick until ctx is cancelled. The
// shutdown sequence (drain the server, then call Flush once more with
// its own deadline) is the caller's — see cmd/ldpd.
func (r *Relay) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = DefaultFlushInterval
	}
	if err := r.SyncCollections(ctx); err != nil {
		log.Printf("cluster: mirroring upstream collections (will retry): %v", err)
	}
	if err := r.Flush(ctx); err != nil {
		log.Printf("cluster: initial flush: %v", err)
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := r.SyncCollections(ctx); err != nil {
				log.Printf("cluster: syncing upstream collections: %v", err)
			}
			if err := r.Flush(ctx); err != nil {
				log.Printf("cluster: flush: %v", err)
			}
		}
	}
}

// FlushResponse is the JSON body of POST /flush.
type FlushResponse struct {
	// Pending counts the deltas still queued after the flush (0 on a
	// fully drained cycle).
	Pending int `json:"pending"`
	// Stranded counts deltas set aside for the operator so far.
	Stranded int    `json:"stranded"`
	Error    string `json:"error,omitempty"`
}

// Handler wraps the service's routes with the relay overrides:
//
//	POST /flush                          force a flush cycle now
//	GET  .../estimate                    proxied upstream (global view)
//	GET  .../frontier                    proxied upstream + local realign
//	POST .../advance                     flush, forward, adopt
//	POST /collections                    forward upstream, mirror locally
//
// Everything else — /report, /report/batch, /status, /healthz, /merge
// (chained relays) — serves from the local node unchanged.
func (r *Relay) Handler() http.Handler {
	inner := r.svc.Handler()
	mux := http.NewServeMux()
	mux.Handle("/", inner)
	mux.HandleFunc("POST /flush", r.handleFlush)
	mux.HandleFunc("GET /estimate", r.proxyRead)
	mux.HandleFunc("GET /collections/{name}/estimate", r.proxyRead)
	mux.HandleFunc("GET /frontier", r.handleFrontier)
	mux.HandleFunc("GET /collections/{name}/frontier", r.handleFrontier)
	mux.HandleFunc("POST /advance", r.handleAdvance)
	mux.HandleFunc("POST /collections/{name}/advance", r.handleAdvance)
	mux.HandleFunc("POST /collections", r.handleCreate)
	return mux
}

func (r *Relay) collectionName(req *http.Request) string {
	name := req.PathValue("name")
	if name == "" {
		return core.DefaultCollection
	}
	return name
}

func (r *Relay) handleFlush(w http.ResponseWriter, req *http.Request) {
	err := r.Flush(req.Context())
	pending := 0
	stranded := 0
	for _, c := range r.svc.Registry().Collections() {
		p, s := r.out.Counts(c.Name())
		pending += p
		stranded += s
	}
	resp := FlushResponse{Pending: pending, Stranded: stranded}
	status := http.StatusOK
	if err != nil {
		resp.Error = err.Error()
		// The reports are safe (journal + outbox); the upstream is not
		// reachable or rejected something. 502 tells the driver the
		// flush did not fully land.
		status = http.StatusBadGateway
	}
	writeJSON(w, status, resp)
}

// proxyRead forwards a read-only request upstream verbatim and relays
// the answer: analysts can point at any node and see the global view.
func (r *Relay) proxyRead(w http.ResponseWriter, req *http.Request) {
	path := req.URL.Path
	if req.URL.RawQuery != "" {
		path += "?" + req.URL.RawQuery
	}
	status, body, err := r.up.Proxy(req.Context(), req.Method, path, "", nil)
	if err != nil {
		http.Error(w, fmt.Sprintf("upstream unreachable: %v", err), http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// handleFrontier serves the upstream's frontier — the authoritative
// protocol position — and realigns the local mirror with it on the
// way through, so a client that just refetched after a 409 can
// immediately re-report to this relay.
func (r *Relay) handleFrontier(w http.ResponseWriter, req *http.Request) {
	name := r.collectionName(req)
	fr, err := r.up.Frontier(req.Context(), name)
	if err != nil {
		if errors.Is(err, ErrUpstreamRejected) {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		http.Error(w, fmt.Sprintf("upstream unreachable: %v", err), http.StatusBadGateway)
		return
	}
	if c, ok := r.svc.Registry().Get(name); ok && c.Aggregator().Phased() {
		if aerr := r.alignPhase(c, fr); aerr != nil {
			log.Printf("cluster: realigning %q with upstream frontier: %v", name, aerr)
		}
	}
	writeJSON(w, http.StatusOK, fr)
}

// handleAdvance closes a round across the tier: force-flush this
// relay (so its reports are merged into the closing round), forward
// the conditional advance upstream, then adopt the new frontier
// locally. A stale round answers 409 exactly like a single node — the
// driver refetches the frontier (which realigns this relay) and
// retries.
func (r *Relay) handleAdvance(w http.ResponseWriter, req *http.Request) {
	name := r.collectionName(req)
	round := -1
	if req.ContentLength != 0 {
		var body struct {
			Round *int `json:"round"`
		}
		data, ok := readControlBody(w, req, "advance request")
		if !ok {
			return
		}
		if json.Unmarshal(data, &body) != nil {
			http.Error(w, "bad advance request", http.StatusBadRequest)
			return
		}
		if body.Round != nil {
			round = *body.Round
		}
	}
	if err := r.Flush(req.Context()); err != nil {
		http.Error(w, fmt.Sprintf("pre-advance flush incomplete: %v", err), http.StatusServiceUnavailable)
		return
	}
	fr, err := r.up.Advance(req.Context(), name, round)
	if err != nil {
		if errors.Is(err, ErrUpstreamStale) {
			// Someone else closed the round first; realign and tell the
			// driver to refetch, like the single-node conditional
			// advance does.
			if c, ok := r.svc.Registry().Get(name); ok && c.Aggregator().Phased() {
				if perr := r.syncPhase(req.Context(), c); perr != nil {
					log.Printf("cluster: realigning %q after lost advance race: %v", name, perr)
				}
			}
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		if errors.Is(err, ErrUpstreamRejected) {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		http.Error(w, fmt.Sprintf("upstream unreachable: %v", err), http.StatusBadGateway)
		return
	}
	if c, ok := r.svc.Registry().Get(name); ok && c.Aggregator().Phased() {
		if aerr := r.alignPhase(c, fr); aerr != nil {
			log.Printf("cluster: adopting advanced frontier for %q: %v", name, aerr)
		}
	}
	writeJSON(w, http.StatusOK, fr)
}

// handleCreate forwards a collection creation upstream, mirrors it
// locally, and relays the upstream's answer.
func (r *Relay) handleCreate(w http.ResponseWriter, req *http.Request) {
	data, ok := readControlBody(w, req, "collection config")
	if !ok {
		return
	}
	status, body, err := r.up.Proxy(req.Context(), http.MethodPost, "/collections", "application/json", data)
	if err != nil {
		http.Error(w, fmt.Sprintf("upstream unreachable: %v", err), http.StatusBadGateway)
		return
	}
	if status == http.StatusCreated || status == http.StatusConflict {
		// Mirror now rather than waiting for the next sync tick, so the
		// creator can post reports to this relay immediately.
		if serr := r.SyncCollections(req.Context()); serr != nil {
			log.Printf("cluster: mirroring after collection create: %v", serr)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// maxControlBytes caps a control-plane body (a collection config, an
// advance request) at the single node's limit.
const maxControlBytes = 1 << 16

// readControlBody reads a control-plane body whole. A body over
// maxControlBytes answers 413, as on a single node, before anything is
// flushed or sent upstream: forwarding a truncated prefix would turn
// the oversize into the upstream's 400 about malformed JSON.
func readControlBody(w http.ResponseWriter, req *http.Request, what string) ([]byte, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxControlBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("%s exceeds %d bytes", what, tooBig.Limit), http.StatusRequestEntityTooLarge)
			return nil, false
		}
		http.Error(w, fmt.Sprintf("bad %s: %v", what, err), http.StatusBadRequest)
		return nil, false
	}
	return data, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return
	}
}
