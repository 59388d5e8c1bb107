package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strings"
	"sync"

	"repro/internal/binenc"
	"repro/internal/task"
)

// Request body limits: one envelope never legitimately approaches a
// mebibyte, while a batch of the largest envelopes (SHE at domain
// ~4096, CMS at width ~4096) needs real headroom; both are tight
// enough that a misbehaving client cannot balloon the decoder.
// Collection-management bodies are a handful of scalar fields.
const (
	maxReportBytes  = 1 << 20
	maxBatchBytes   = 8 << 20
	maxControlBytes = 1 << 16
)

// ContentTypeBinary is the request media type of the binary report
// wire format. A single report body is one task-defined binary
// envelope; a batch body is a uvarint report count followed by that
// many length-prefixed envelopes. Every task accepts it; the
// "encodings" field of /status, /collections and /frontier lists it
// beside "json".
const ContentTypeBinary = "application/x-ldp-binary"

// isBinaryReport reports whether the request body declares the binary
// report media type (parameters after ";" are ignored).
func isBinaryReport(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.EqualFold(strings.TrimSpace(ct), ContentTypeBinary)
}

// bodyBufPool recycles binary request body buffers, so the binary hot
// path reads each body into warmed memory instead of allocating per
// request. Buffers above maxPooledBody are dropped rather than pooled,
// so one maximal batch does not pin its megabytes forever.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// readRawBody slurps a binary request body under the size cap into a
// pooled buffer, answering 413 (oversize) or 400 (transport error)
// itself. The caller owns the buffer until it calls releaseBodyBuf —
// after which nothing may alias its bytes.
func readRawBody(w http.ResponseWriter, r *http.Request, limit int64, what string) (*bytes.Buffer, bool) {
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		releaseBodyBuf(buf)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("%s exceeds %d bytes", what, tooBig.Limit), http.StatusRequestEntityTooLarge)
			return nil, false
		}
		http.Error(w, fmt.Sprintf("bad %s: %v", what, err), http.StatusBadRequest)
		return nil, false
	}
	return buf, true
}

func releaseBodyBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyBufPool.Put(buf)
	}
}

// Service is an HTTP aggregation endpoint serving many concurrent
// surveys: a registry of named collections, each an independent
// ShardedAggregator over one task family (frequency oracle, numeric
// mean, private sketch — whatever the task registry knows). Clients
// POST task-defined report envelopes to /collections/{name}/report (or
// a JSON array of them to .../report/batch), analysts GET .../estimate
// for the task-defined estimate (debiased counts, mean ± CI, per-item
// sketch counts) and .../status for collection metadata; POST/GET
// /collections and DELETE /collections/{name} manage the registry. The
// flat pre-collections routes (/report, /report/batch, /estimate,
// /status) stay wired to the "default" collection, so existing clients
// are untouched.
//
// Estimates are served from a per-collection merged snapshot that is
// recomputed only when the ingestion epoch has advanced, so analyst
// polling of an idle collection costs no re-merge. With a Store
// attached, collection creations and deletions are mirrored to disk
// immediately; periodic checkpointing is the caller's loop (see cmd/ldpd).
// It is safe for concurrent use.
type Service struct {
	reg   *CollectionRegistry
	store *Store // nil = memory-only
	// unhealthyAfter is the consecutive-checkpoint-failure count past
	// which GET /healthz answers 503 for the process.
	unhealthyAfter int
	// relayInfo, when set (relay-mode processes), reports a collection's
	// relay standing for /status and /healthz; nil entries mean the
	// collection is not relayed. Set once before serving.
	relayInfo func(collection string) *RelayInfo
}

// DefaultUnhealthyAfter is the /healthz failure-streak threshold when
// the operator sets none: transient single failures (a full disk that
// clears, a slow fsync) stay "ok", a stuck disk does not.
const DefaultUnhealthyAfter = 3

// NewMultiService returns a service over an externally built registry,
// for processes that restore collections from a Store before serving.
// A non-nil store makes the collection-management routes persistent:
// creates are checkpointed immediately and deletes remove the snapshot.
func NewMultiService(reg *CollectionRegistry, store *Store) *Service {
	return &Service{reg: reg, store: store, unhealthyAfter: DefaultUnhealthyAfter}
}

// SetUnhealthyAfter overrides the /healthz checkpoint-failure-streak
// threshold (n <= 0 restores the default).
func (s *Service) SetUnhealthyAfter(n int) {
	if n <= 0 {
		n = DefaultUnhealthyAfter
	}
	s.unhealthyAfter = n
}

// Registry exposes the service's collection registry.
func (s *Service) Registry() *CollectionRegistry { return s.reg }

// RelayInfo is a relay-mode collection's flushing standing, reported
// in /status (relay field) and folded into the /healthz verdict: a
// latched-broken upstream makes the process degraded — it is accepting
// reports it cannot currently deliver.
type RelayInfo struct {
	Upstream            string  `json:"upstream"`
	LastFlushUnix       int64   `json:"last_flush_unix,omitempty"`
	LastFlushAgeSeconds float64 `json:"last_flush_age_seconds,omitempty"`
	// PendingReports counts reports folded locally but not yet cut into
	// an outbound delta; PendingDeltas counts cut deltas still waiting
	// in the outbox for an upstream acknowledgment.
	PendingReports int `json:"pending_reports"`
	PendingDeltas  int `json:"pending_deltas"`
	// StrandedDeltas counts deltas set aside after an unresolvable
	// upstream rejection (e.g. a round that closed for good); they are
	// preserved on disk for the operator, never silently dropped.
	StrandedDeltas int  `json:"stranded_deltas,omitempty"`
	FlushFailures  int  `json:"consecutive_flush_failures"`
	UpstreamBroken bool `json:"upstream_broken,omitempty"`
}

// SetRelayInfo installs the relay tier's per-collection status hook.
// Must be called before the handler serves traffic.
func (s *Service) SetRelayInfo(fn func(collection string) *RelayInfo) {
	s.relayInfo = fn
}

// Handler returns the service's HTTP routes. Method-qualified patterns
// make the mux answer wrong-method requests with 405 and an Allow
// header.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	// Per-collection planes: data (report, estimate, status),
	// interactive protocol (frontier, advance) and cluster (merge —
	// relays fold their accumulated state in here). Each route is
	// registered under /collections/{name} and again flat, where it
	// serves the default collection.
	for _, r := range []struct {
		method, path string
		h            func(http.ResponseWriter, *http.Request, *Collection)
	}{
		{"POST", "/report", s.handleReport},
		{"POST", "/report/batch", s.handleReport},
		{"GET", "/estimate", s.handleEstimate},
		{"GET", "/status", s.handleStatus},
		{"GET", "/frontier", s.handleFrontier},
		{"POST", "/advance", s.handleAdvance},
		{"POST", "/merge", s.handleMerge},
	} {
		h := s.withCollection(r.h)
		mux.HandleFunc(r.method+" /collections/{name}"+r.path, h)
		mux.HandleFunc(r.method+" "+r.path, h)
	}
	// Collection management.
	mux.HandleFunc("POST /collections", s.handleCollectionCreate)
	mux.HandleFunc("GET /collections", s.handleCollectionList)
	mux.HandleFunc("DELETE /collections/{name}", s.handleCollectionDelete)
	// Operational plane.
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// withCollection resolves the {name} path segment (empty on the flat
// routes, which serve the default collection) before invoking the
// handler. Unknown names are a 404: reports for a survey that was
// never created should bounce loudly, not conjure an aggregator.
func (s *Service) withCollection(h func(http.ResponseWriter, *http.Request, *Collection)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if name == "" {
			name = DefaultCollection
		}
		c, ok := s.reg.Get(name)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown collection %q", name), http.StatusNotFound)
			return
		}
		h(w, r, c)
	}
}

// decodeBody decodes one JSON value from the request body into v under
// a size cap, distinguishing the three failure classes a collector
// sees in practice: an oversize body is 413 (the client should split
// or shrink, not "fix" its JSON), malformed JSON is 400, and trailing
// data after the value is also 400 — a concatenated second envelope
// would otherwise be silently dropped, which masks client framing bugs.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any, what string) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("%s exceeds %d bytes", what, tooBig.Limit), http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, fmt.Sprintf("bad %s: %v", what, err), http.StatusBadRequest)
		return false
	}
	// Token (not More) so that trailing non-value garbage like a stray
	// "}" is caught too; io.EOF is the only clean outcome.
	if _, err := dec.Token(); err != io.EOF {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			// The value fit but the body kept going past the cap
			// (padding, a giant second value): that is the oversize
			// contract, not the framing one.
			http.Error(w, fmt.Sprintf("%s exceeds %d bytes", what, tooBig.Limit), http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, fmt.Sprintf("bad %s: trailing data after JSON body", what), http.StatusBadRequest)
		return false
	}
	return true
}

// BatchResponse is the JSON body of /report/batch: how many envelopes
// were folded in, and the rejection reasons for the rest. A batch is
// not atomic — valid envelopes are aggregated even when others in the
// same batch are rejected (the response status is 400 in that case so
// simple clients still notice). Replayed marks a deduplicated retry:
// the batch's Idempotency-Key was seen before, the recorded outcome is
// returned and nothing was re-aggregated.
type BatchResponse struct {
	Accepted int    `json:"accepted"`
	Rejected int    `json:"rejected"`
	Replayed bool   `json:"replayed,omitempty"`
	Error    string `json:"error,omitempty"`
}

// maxBatchIDBytes caps the Idempotency-Key header: the key is stored
// per entry in the dedup memory and in every snapshot, so a client
// must not be able to inflate either with a kilobyte key.
const maxBatchIDBytes = 128

// handleReport serves /report and /report/batch in both wire
// encodings. The routes differ in how the body is read — one envelope
// or many, under the report or the batch size cap — and in how the
// outcome is phrased (a bare status for one report, a BatchResponse
// for a batch, whose Idempotency-Key only the batch route honours);
// the encodings differ in the body reader. Everything after — JSON's
// translation, journal, fold, dedup, auto-advance — is Collection.ingest.
func (s *Service) handleReport(w http.ResponseWriter, r *http.Request, c *Collection) {
	batch := strings.HasSuffix(r.URL.Path, "/batch")
	limit, what := int64(maxReportBytes), "report"
	var id string
	if batch {
		limit, what = maxBatchBytes, "batch"
		if id = r.Header.Get("Idempotency-Key"); len(id) > maxBatchIDBytes {
			http.Error(w, fmt.Sprintf("Idempotency-Key exceeds %d bytes", maxBatchIDBytes), http.StatusBadRequest)
			return
		}
	}
	var res BatchResult
	var err error
	if isBinaryReport(r) {
		buf, ok := readRawBody(w, r, limit, what)
		if !ok {
			return
		}
		defer releaseBodyBuf(buf)
		var bins [][]byte
		if !batch {
			bins = [][]byte{buf.Bytes()}
		} else if bins, ok = splitBinaryBatch(w, buf.Bytes()); !ok {
			return
		}
		res, err = c.IngestBatchBinary(id, bins)
	} else {
		// Reports are decoded only to raw JSON values here — the
		// collection's task owns the envelope schema and translates it.
		var envs []json.RawMessage
		var body any = &envs
		if !batch {
			envs = make([]json.RawMessage, 1)
			body = &envs[0]
		}
		if !decodeBody(w, r, limit, body, what) {
			return
		}
		res, err = c.IngestBatch(id, envs)
	}
	if err != nil {
		ingestError(w, err)
		return
	}
	if res.Accepted > 0 && !res.Replayed {
		s.maybeAutoAdvance(c)
	}
	if !batch {
		if err := soleRejection(res.RejectErr); err != nil {
			ingestError(w, err)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		return
	}
	resp := BatchResponse{Accepted: res.Accepted, Rejected: res.Rejected, Replayed: res.Replayed}
	status := http.StatusAccepted
	if res.RejectErr != nil {
		resp.Error = res.RejectErr.Error()
		status = http.StatusBadRequest
		if res.Accepted == 0 && errors.Is(res.RejectErr, task.ErrWrongRound) {
			// The whole batch was privatized against a stale round:
			// signal "refetch the frontier", as the single-report
			// route does.
			status = http.StatusConflict
		}
	}
	writeJSON(w, status, resp)
}

// ingestError answers a failed ingest (report, batch or merge) with
// the status its cause maps to. Journal down and duplicate in flight
// are server-side and transient: 503 tells the client to retry (which
// the dedup memory makes safe), after a pause when the first attempt
// with its key is still processing. A record the journal could not
// replay is the client's to split: 413. A wrong-round rejection means
// the client's protocol view is stale — 409 tells it to refetch the
// frontier and re-report, where a 400 would tell it to "fix" a
// perfectly well-formed envelope — and everything else is a malformed
// envelope.
func ingestError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrBatchInFlight):
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrJournal):
		status = http.StatusServiceUnavailable
	case errors.Is(err, errFrameTooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, task.ErrWrongRound):
		status = http.StatusConflict
	}
	http.Error(w, err.Error(), status)
}

// splitBinaryBatch parses a binary batch body — a uvarint report count
// followed by that many length-prefixed envelopes — into per-report
// payload slices aliasing the body buffer (the journal frame stores
// them as they are, copied into its own buffer before the write, and
// the fold retains nothing, so the aliases die with the request),
// answering 400 itself when the framing is broken.
func splitBinaryBatch(w http.ResponseWriter, data []byte) ([][]byte, bool) {
	r := binenc.NewReader(data)
	n := r.Length(1)
	batch := make([][]byte, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		batch = append(batch, r.Blob())
	}
	if err := r.Done(); err != nil {
		http.Error(w, fmt.Sprintf("bad batch: %v", err), http.StatusBadRequest)
		return nil, false
	}
	return batch, true
}

// MergeResponse is the JSON body of POST .../merge: how many reports
// the delta carried in, whether it was a deduplicated retry, and the
// collection's report total after the fold.
type MergeResponse struct {
	Accepted int  `json:"accepted"`
	Replayed bool `json:"replayed,omitempty"`
	Reports  int  `json:"reports"`
}

// handleMerge folds a relay's state delta into the collection through
// the exact Merge path. The body is the LDPDELTA1 container under the
// binary media type (anything else is 415), and an Idempotency-Key
// header (which overrides the delta's embedded ID) makes retries fold
// exactly once. Failure mapping follows the report routes: config or
// codec mismatch 400 before anything is journaled, stale round 409,
// journal down or duplicate in flight 503.
func (s *Service) handleMerge(w http.ResponseWriter, r *http.Request, c *Collection) {
	id := r.Header.Get("Idempotency-Key")
	if len(id) > maxBatchIDBytes {
		http.Error(w, fmt.Sprintf("Idempotency-Key exceeds %d bytes", maxBatchIDBytes), http.StatusBadRequest)
		return
	}
	if !isBinaryReport(r) {
		http.Error(w, "delta must be an "+ContentTypeBinary+" container", http.StatusUnsupportedMediaType)
		return
	}
	buf, ok := readRawBody(w, r, maxBatchBytes, "delta")
	if !ok {
		return
	}
	defer releaseBodyBuf(buf)
	d, err := DecodeDeltaBinary(buf.Bytes())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if id != "" {
		d.ID = id
	}
	if len(d.ID) > maxBatchIDBytes {
		http.Error(w, fmt.Sprintf("delta id exceeds %d bytes", maxBatchIDBytes), http.StatusBadRequest)
		return
	}
	if err := c.CheckDeltaConfig(d); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, err := c.IngestMerge(d)
	if err != nil {
		ingestError(w, err)
		return
	}
	if res.Accepted > 0 && !res.Replayed {
		s.maybeAutoAdvance(c)
	}
	writeJSON(w, http.StatusOK, MergeResponse{Accepted: res.Accepted, Replayed: res.Replayed, Reports: c.agg.Collected()})
}

// maybeAutoAdvance closes the collection's round when its configured
// per-round report quota has been met. Failures are logged, never
// surfaced to the reporting client — its report was accepted; the
// round boundary is the server's business.
func (s *Service) maybeAutoAdvance(c *Collection) {
	advanced, err := c.MaybeAdvance(c.cfg.AdvanceQuota)
	if err != nil {
		log.Printf("core: auto-advance of collection %q: %v", c.name, err)
		return
	}
	if advanced {
		s.checkpointAfterAdvance(c)
	}
}

// checkpointAfterAdvance persists the new round immediately: round
// boundaries are the durability points of an interactive protocol — a
// crash after an unpersisted advance would resume the old round and
// re-score users into it.
func (s *Service) checkpointAfterAdvance(c *Collection) {
	if s.store == nil {
		return
	}
	if err := s.store.Save(s.reg, c); err != nil {
		log.Printf("core: checkpoint after advance of collection %q: %v", c.name, err)
	}
}

// HealthResponse is the JSON body of GET /healthz: the process-level
// verdict plus each collection's durability standing. Status is
// "degraded" (and the HTTP status 503) when any collection's
// checkpoint-failure streak passes the threshold or its journal is
// refusing appends — the states where the server is up but quietly not
// durable, which a liveness probe alone would never notice.
type HealthResponse struct {
	Status      string                      `json:"status"`
	Collections map[string]CollectionHealth `json:"collections,omitempty"`
	// Relay maps relayed collections to their upstream-flushing
	// standing (relay-mode processes only). A latched-broken upstream
	// degrades the process just like a broken journal: reports are
	// being accepted that cannot currently reach the aggregation tier.
	Relay map[string]*RelayInfo `json:"relay,omitempty"`
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{Status: "ok", Collections: make(map[string]CollectionHealth)}
	status := http.StatusOK
	for _, c := range s.reg.Collections() {
		var h CollectionHealth
		if s.store != nil {
			h = s.store.Health(c)
		} else {
			h.JournalLagFrames, h.JournalLagBytes, h.JournalBroken = c.JournalHealth()
		}
		if h.SaveFailures >= s.unhealthyAfter || h.JournalBroken {
			resp.Status = "degraded"
			status = http.StatusServiceUnavailable
		}
		resp.Collections[c.Name()] = h
		if s.relayInfo != nil {
			if info := s.relayInfo(c.Name()); info != nil {
				if resp.Relay == nil {
					resp.Relay = make(map[string]*RelayInfo)
				}
				resp.Relay[c.Name()] = info
				if info.UpstreamBroken {
					resp.Status = "degraded"
					status = http.StatusServiceUnavailable
				}
			}
		}
	}
	writeJSON(w, status, resp)
}

// EstimateResponse is the JSON body of /estimate: collection metadata
// plus the task-defined estimate payload (frequency counts, mean ± CI,
// per-item sketch counts — see each task package's EstimateResult).
type EstimateResponse struct {
	Collection string          `json:"collection"`
	Task       string          `json:"task"`
	Mechanism  string          `json:"mechanism"`
	Epsilon    float64         `json:"epsilon"`
	Shards     int             `json:"shards"`
	Reports    int             `json:"reports"`
	Estimate   json.RawMessage `json:"estimate"`
}

func (s *Service) handleEstimate(w http.ResponseWriter, r *http.Request, c *Collection) {
	// Served through the per-query response cache: repeated reads of
	// one query against an unchanged collection re-serialize nothing.
	est, reports, err := c.agg.EstimateCached(r.URL.Query())
	if err != nil {
		// Task estimate errors are query errors (bad ?top=, ...) the
		// analyst can fix; merge failures are the server's problem.
		status := http.StatusBadRequest
		if IsInternal(err) {
			status = http.StatusInternalServerError
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, http.StatusOK, EstimateResponse{
		Collection: c.name,
		Task:       c.agg.TaskType(),
		Mechanism:  c.cfg.Mechanism,
		Epsilon:    c.cfg.Epsilon,
		Shards:     c.agg.Shards(),
		Reports:    reports,
		Estimate:   est,
	})
}

// FrontierResponse is the JSON body of GET /frontier and of a
// successful POST /advance: the collection's protocol position plus
// the task-defined frontier payload clients privatize against.
type FrontierResponse struct {
	Collection   string          `json:"collection"`
	Task         string          `json:"task"`
	Round        int             `json:"round"`
	Phase        string          `json:"phase"`
	Reports      int             `json:"reports"`
	RoundReports int             `json:"round_reports"`
	Encodings    []string        `json:"encodings"`
	Frontier     json.RawMessage `json:"frontier"`
}

// phaseOf names a phased collection's protocol phase for /status and
// /frontier bodies.
func phaseOf(agg *ShardedAggregator) string {
	if agg.Done() {
		return "done"
	}
	return "collecting"
}

func frontierResponseFor(c *Collection) (FrontierResponse, error) {
	frontier, err := c.agg.Frontier()
	if err != nil {
		return FrontierResponse{}, err
	}
	return FrontierResponse{
		Collection:   c.name,
		Task:         c.agg.TaskType(),
		Round:        c.agg.Round(),
		Phase:        phaseOf(c.agg),
		Reports:      c.agg.Collected(),
		RoundReports: c.agg.RoundReports(),
		Encodings:    reportEncodings,
		Frontier:     frontier,
	}, nil
}

func (s *Service) handleFrontier(w http.ResponseWriter, r *http.Request, c *Collection) {
	resp, err := frontierResponseFor(c)
	if errors.Is(err, ErrNotPhased) {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// AdvanceRequest is the optional JSON body of POST /advance. Round,
// when set, makes the advance conditional: the round is closed only if
// it is still the current one, so two drivers posting "close round 2"
// together advance the protocol once — the loser gets 409 and
// refetches the frontier — instead of silently burning round 3 empty.
type AdvanceRequest struct {
	Round *int `json:"round"`
}

func (s *Service) handleAdvance(w http.ResponseWriter, r *http.Request, c *Collection) {
	expect := -1
	if r.ContentLength != 0 {
		var req AdvanceRequest
		if !decodeBody(w, r, maxControlBytes, &req, "advance request") {
			return
		}
		if req.Round != nil {
			expect = *req.Round
		}
	}
	if err := c.AdvanceExpecting(expect); err != nil {
		if errors.Is(err, ErrNotPhased) {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// The other client-visible failures — closing a round that is
		// no longer current, advancing a completed protocol — are a
		// stale view of the collection, same family as a wrong-round
		// report.
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	s.checkpointAfterAdvance(c)
	resp, err := frontierResponseFor(c)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// StatusResponse is the JSON body of /status and one element of the
// GET /collections listing. The task-specific sizing fields carry
// whichever ones the collection's task defines.
type StatusResponse struct {
	Collection string  `json:"collection"`
	Task       string  `json:"task"`
	Mechanism  string  `json:"mechanism"`
	Epsilon    float64 `json:"epsilon"`
	Domain     int     `json:"domain,omitempty"`
	Dim        int     `json:"dim,omitempty"`
	Width      int     `json:"width,omitempty"`
	Hashes     int     `json:"hashes,omitempty"`
	Shards     int     `json:"shards"`
	Reports    int     `json:"reports"`
	ReportBits int     `json:"report_bits"`
	// Round, RoundReports and Phase are set for phased (multi-round)
	// collections only; the counters are pointers so zero values still
	// serialize. RoundReports comes from the aggregator's round counter
	// — exact across restarts, merges and quota checks even though the
	// task holds no per-report state (see hhtask's accumulator).
	Round        *int   `json:"round,omitempty"`
	RoundReports *int   `json:"round_reports,omitempty"`
	Phase        string `json:"phase,omitempty"`
	// Encodings lists the report wire encodings the collection accepts
	// (reportEncodings: every task takes both), and the embedded
	// CheckpointInfo carries the size of the collection's last durable
	// snapshot when a store tracks one.
	Encodings []string `json:"encodings"`
	// Config is the full round-trippable collection configuration — the
	// flattened fields above cover the common ones, but a relay
	// mirroring an upstream collection needs every parameter verbatim.
	Config CollectionConfig `json:"config"`
	// Relay is set on relay-mode processes: the collection's flushing
	// standing against its upstream.
	Relay *RelayInfo `json:"relay,omitempty"`
	*CheckpointInfo
}

// reportEncodings lists the report wire encodings every task accepts.
var reportEncodings = []string{"json", "binary"}

func (s *Service) statusFor(c *Collection) StatusResponse {
	st := StatusResponse{
		Collection: c.name,
		Task:       c.agg.TaskType(),
		Mechanism:  c.cfg.Mechanism,
		Epsilon:    c.cfg.Epsilon,
		Domain:     c.cfg.Domain,
		Dim:        c.cfg.Dim,
		Width:      c.cfg.Width,
		Hashes:     c.cfg.Hashes,
		Shards:     c.agg.Shards(),
		Reports:    c.agg.Collected(),
		ReportBits: c.agg.ReportBits(),
		Encodings:  reportEncodings,
		Config:     c.cfg,
	}
	if s.relayInfo != nil {
		st.Relay = s.relayInfo(c.name)
	}
	if c.agg.Phased() {
		round, roundReports := c.agg.Round(), c.agg.RoundReports()
		st.Round = &round
		st.RoundReports = &roundReports
		st.Phase = phaseOf(c.agg)
	}
	if s.store != nil {
		if info, ok := s.store.LastCheckpoint(c.name); ok {
			st.CheckpointInfo = &info
		}
	}
	return st
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request, c *Collection) {
	// Metadata only — no need for the full merge /estimate performs,
	// and Collected reads an atomic counter, so status polling never
	// touches a shard lock.
	writeJSON(w, http.StatusOK, s.statusFor(c))
}

// CreateCollectionRequest is the JSON body of POST /collections. The
// embedded CollectionConfig carries the task tag ("freq" when absent)
// and the task-specific parameters.
type CreateCollectionRequest struct {
	Name string `json:"name"`
	CollectionConfig
}

// Remote-surface caps on collection configuration. ldpd's CLI flags
// are operator-trusted, but POST /collections is not: an unbounded
// domain, width or shard count would let any client allocate
// accumulator memory per shard until the process dies. Caps bound
// three axes — per-parameter sanity, per-collection tally cells
// (accumulator size × shards, ~8 bytes each), and total registry size
// — so even a client looping maximal creates cannot push the server
// past a bounded footprint. The limits sit far above every
// configuration in the tutorial's experiments.
const (
	maxCreateDomain  = 1 << 18
	maxCreateDim     = 1 << 12
	maxCreateWidth   = 1 << 16
	maxCreateHashes  = 1 << 10
	maxCreateK       = 1 << 12
	maxCreateBudget  = 1 << 13
	maxCreateShards  = 64
	maxCreateEpsilon = 32
	maxCreateCells   = 1 << 20
	maxCollections   = 256
)

// validateCreateConfig bounds a network-supplied configuration before
// any aggregator memory is allocated for it. The per-shard cell count
// is the task's accumulator size: the categorical domain for freq, the
// vector dimension for mean, the k×m counter grid for sketch.
func validateCreateConfig(cfg CollectionConfig) error {
	if !task.Registered(cfg.Type()) {
		return fmt.Errorf("core: unknown task type %q (registered: %v)", cfg.Type(), task.Types())
	}
	if cfg.Domain > maxCreateDomain {
		return fmt.Errorf("core: domain %d exceeds the API limit %d", cfg.Domain, maxCreateDomain)
	}
	if cfg.Dim > maxCreateDim {
		return fmt.Errorf("core: dim %d exceeds the API limit %d", cfg.Dim, maxCreateDim)
	}
	if cfg.Width > maxCreateWidth {
		return fmt.Errorf("core: width %d exceeds the API limit %d", cfg.Width, maxCreateWidth)
	}
	if cfg.Hashes > maxCreateHashes {
		return fmt.Errorf("core: hashes %d exceeds the API limit %d", cfg.Hashes, maxCreateHashes)
	}
	if cfg.K > maxCreateK {
		return fmt.Errorf("core: k %d exceeds the API limit %d", cfg.K, maxCreateK)
	}
	if cfg.Budget > maxCreateBudget {
		return fmt.Errorf("core: budget %d exceeds the API limit %d", cfg.Budget, maxCreateBudget)
	}
	if cfg.Shards > maxCreateShards {
		return fmt.Errorf("core: shards %d exceeds the API limit %d", cfg.Shards, maxCreateShards)
	}
	if cfg.Epsilon > maxCreateEpsilon {
		return fmt.Errorf("core: epsilon %g exceeds the API limit %d", cfg.Epsilon, maxCreateEpsilon)
	}
	if cfg.AdvanceQuota < 0 {
		return fmt.Errorf("core: advance_quota must be non-negative, got %d", cfg.AdvanceQuota)
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	perShard := cfg.Domain
	switch cfg.Type() {
	case task.TypeMean:
		perShard = cfg.Dim
	case task.TypeSketch:
		perShard = cfg.Width * cfg.Hashes
	case task.TypeHH:
		// The hh accumulator is one integer sum per round candidate,
		// not a function of any field capped above; the adapter bounds
		// the candidate set (maxRoundCandidates) at construction.
		perShard = 0
	}
	if cells := perShard * shards; cells > maxCreateCells {
		return fmt.Errorf("core: accumulator size × shards = %d tally cells exceeds the API limit %d", cells, maxCreateCells)
	}
	return nil
}

func (s *Service) handleCollectionCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateCollectionRequest
	if !decodeBody(w, r, maxControlBytes, &req, "collection config") {
		return
	}
	if err := validateCreateConfig(req.CollectionConfig); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Checked outside the registry lock: a burst of racing creates can
	// land a few past the cap, which is fine — the cap bounds abuse,
	// not an exact quota.
	if s.reg.Len() >= maxCollections {
		http.Error(w, fmt.Sprintf("core: collection limit %d reached", maxCollections), http.StatusTooManyRequests)
		return
	}
	c, err := s.reg.Create(req.Name, req.CollectionConfig)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrCollectionExists) {
			status = http.StatusConflict
		}
		http.Error(w, err.Error(), status)
		return
	}
	if s.store != nil {
		// Give the collection its write-ahead journal before anything
		// is ingested. A failed attach leaves it journal-less (reports
		// are still durable at each checkpoint tick, just not between
		// ticks) — worth serving, worth logging.
		if err := s.store.Attach(c); err != nil {
			log.Printf("core: collection %q created without a journal: %v", c.name, err)
		}
		// Persist the (empty) collection now, so its configuration
		// survives a restart that beats the first checkpoint tick.
		if err := s.store.Save(s.reg, c); err != nil {
			// Roll back only while the collection is still empty:
			// reports 202'd into it during this window must not vanish
			// with it. Both sides are cleaned — Save can fail after the
			// snapshot rename landed (e.g. the directory fsync), and a
			// stray file would resurrect the "failed" collection on
			// restart.
			if s.reg.DeleteIfEmpty(c) {
				if rerr := s.store.Remove(s.reg, c.name); rerr != nil {
					err = errors.Join(err, rerr)
				}
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			// Reports already landed: the collection stays live and
			// memory-only for now; the checkpoint loop retries the
			// persistence (the failed save recorded no epoch). The
			// operator must hear about it — with periodic checkpoints
			// disabled nothing else will mention the failure.
			log.Printf("core: initial checkpoint of collection %q failed, kept memory-only until a checkpoint succeeds: %v", c.name, err)
		}
	}
	writeJSON(w, http.StatusCreated, s.statusFor(c))
}

func (s *Service) handleCollectionList(w http.ResponseWriter, r *http.Request) {
	cols := s.reg.Collections()
	out := make([]StatusResponse, 0, len(cols))
	for _, c := range cols {
		out = append(out, s.statusFor(c))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleCollectionDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == DefaultCollection {
		// The default collection backs the flat legacy routes; deleting
		// it would turn them into 404s for every old client.
		http.Error(w, "the default collection cannot be deleted", http.StatusBadRequest)
		return
	}
	c, hadCollection := s.reg.Get(name)
	if !s.reg.Delete(name) {
		// A previous DELETE may have deregistered the collection and
		// then failed the snapshot unlink (answered 500). Retries must
		// converge, so sweep a stray snapshot before the 404, gated on
		// a file actually existing (an arbitrary name must not allocate
		// store lock state); Remove itself refuses to touch a file a
		// live case-variant collection owns. A failing sweep is a 500,
		// not a 404: "not found" would tell the caller the name is
		// fully gone while the snapshot still waits to resurrect it on
		// the next restart.
		if s.store != nil && !strings.EqualFold(name, DefaultCollection) && s.store.HasSnapshot(name) {
			if err := s.store.Remove(s.reg, name); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		http.Error(w, fmt.Sprintf("unknown collection %q", name), http.StatusNotFound)
		return
	}
	if hadCollection {
		// Release the journal's file handle; Store.Remove unlinks the
		// segments along with the snapshot.
		c.CloseJournal()
	}
	if s.store != nil {
		if err := s.store.Remove(s.reg, name); err != nil {
			// The registry entry is already gone; report the disk
			// failure so an operator knows a stale snapshot remains.
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already out; nothing more to do than drop the
		// connection, which the server does for us.
		return
	}
}
