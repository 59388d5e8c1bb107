// Package cluster is the relay ingest tier: the scale-out layer that
// lets N ldpd processes front one aggregation node. A relay accepts
// ordinary report traffic, folds it into its own sharded aggregator
// (absorbing the per-report cost where the clients are), and
// periodically cuts the accumulated state into a compact delta it
// ships upstream over POST /collections/{name}/merge — the "small
// mergeable summary beats raw reports" economics of the paper's
// deployments, applied between tiers instead of between users and
// server.
//
// Exactness is inherited, not approximated: every task state is an
// exactly-mergeable monoid, so (fold at relay, merge upstream) equals
// (fold upstream) bit for bit on integer-valued tasks, in any
// partitioning and order. Durability is inherited from the write-ahead
// journal: a delta is journaled as a flush frame before it leaves the
// aggregator, persisted in an on-disk outbox until the upstream
// acknowledges it, and retried under a fixed idempotency key so the
// upstream folds it exactly once no matter how many crashes or
// timeouts intervene.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
)

// ErrUpstreamStale marks an upstream 409: the relay's view of a phased
// collection's round is behind the upstream's. The caller refetches
// the frontier and realigns rather than retrying the same payload.
var ErrUpstreamStale = errors.New("cluster: upstream rejected a stale round")

// ErrUpstreamRejected marks a permanent upstream rejection (4xx other
// than 409): retrying the identical payload cannot succeed, so the
// caller strands it for the operator instead of looping.
var ErrUpstreamRejected = errors.New("cluster: upstream rejected the request")

// Upstream is the relay's HTTP client for its aggregation node. All
// methods are safe for concurrent use; retries and backoff are the
// caller's policy (the flusher owns pacing), not the client's.
type Upstream struct {
	base   string
	client *http.Client
}

// NewUpstream returns a client for the aggregation node at base
// (scheme://host:port, no trailing slash required).
func NewUpstream(base string) *Upstream {
	return &Upstream{
		base:   strings.TrimRight(base, "/"),
		client: &http.Client{Timeout: 30 * time.Second},
	}
}

// Base returns the upstream base URL (for /status reporting).
func (u *Upstream) Base() string { return u.base }

// httpStatusError classifies a non-2xx upstream answer.
func httpStatusError(op string, status int, body []byte) error {
	msg := strings.TrimSpace(string(body))
	switch {
	case status == http.StatusConflict:
		return fmt.Errorf("%w: %s: %s", ErrUpstreamStale, op, msg)
	case status >= 400 && status < 500 && status != http.StatusRequestTimeout && status != http.StatusTooManyRequests:
		return fmt.Errorf("%w: %s: %d %s", ErrUpstreamRejected, op, status, msg)
	}
	// 5xx, 408, 429: transient — the caller retries with backoff.
	return fmt.Errorf("cluster: %s: upstream answered %d: %s", op, status, msg)
}

// do runs one request and decodes a 2xx JSON body into out (skipped
// when out is nil). Non-2xx bodies become classified errors.
func (u *Upstream) do(req *http.Request, out any) error {
	resp, err := u.client.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: %s %s: %w", req.Method, req.URL.Path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return fmt.Errorf("cluster: %s %s: reading response: %w", req.Method, req.URL.Path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return httpStatusError(req.Method+" "+req.URL.Path, resp.StatusCode, body)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("cluster: %s %s: decoding response: %w", req.Method, req.URL.Path, err)
	}
	return nil
}

// Merge posts one encoded delta (the binary container) to the named
// collection under the given idempotency key.
func (u *Upstream) Merge(ctx context.Context, collection string, blob []byte, id string) (core.MergeResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		u.base+"/collections/"+collection+"/merge", bytes.NewReader(blob))
	if err != nil {
		return core.MergeResponse{}, err
	}
	req.Header.Set("Content-Type", core.ContentTypeBinary)
	if id != "" {
		req.Header.Set("Idempotency-Key", id)
	}
	var out core.MergeResponse
	if err := u.do(req, &out); err != nil {
		return core.MergeResponse{}, err
	}
	return out, nil
}

// Frontier fetches the named collection's protocol frontier.
func (u *Upstream) Frontier(ctx context.Context, collection string) (core.FrontierResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		u.base+"/collections/"+collection+"/frontier", nil)
	if err != nil {
		return core.FrontierResponse{}, err
	}
	var out core.FrontierResponse
	if err := u.do(req, &out); err != nil {
		return core.FrontierResponse{}, err
	}
	return out, nil
}

// Advance posts a conditional advance ("close round if it is still
// current") and returns the new frontier. A stale round surfaces as
// ErrUpstreamStale.
func (u *Upstream) Advance(ctx context.Context, collection string, round int) (core.FrontierResponse, error) {
	body, err := json.Marshal(struct {
		Round *int `json:"round"`
	}{Round: &round})
	if err != nil {
		return core.FrontierResponse{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		u.base+"/collections/"+collection+"/advance", bytes.NewReader(body))
	if err != nil {
		return core.FrontierResponse{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	var out core.FrontierResponse
	if err := u.do(req, &out); err != nil {
		return core.FrontierResponse{}, err
	}
	return out, nil
}

// Collections lists the upstream's collections (full configs included,
// so a relay can mirror them verbatim).
func (u *Upstream) Collections(ctx context.Context) ([]core.StatusResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.base+"/collections", nil)
	if err != nil {
		return nil, err
	}
	var out []core.StatusResponse
	if err := u.do(req, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Proxy forwards one request (method, path+query, body) upstream and
// returns the raw status and body — the passthrough the relay's read
// routes (/estimate, /frontier) use so analysts can query any node.
func (u *Upstream) Proxy(ctx context.Context, method, pathAndQuery string, contentType string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u.base+pathAndQuery, rd)
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := u.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, out, nil
}
