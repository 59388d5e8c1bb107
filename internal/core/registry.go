package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/task"
)

// ErrCollectionExists is wrapped by Create when the name is already
// registered, so callers can distinguish a conflict (HTTP 409) from an
// invalid name or configuration (HTTP 400) with errors.Is.
var ErrCollectionExists = errors.New("already exists")

// DefaultCollection is the collection name behind the flat legacy
// routes (/report, /estimate, ...): a server that predates the
// collections API keeps working unchanged against it.
const DefaultCollection = "default"

// maxCollectionName bounds collection-name length; names become file
// names under the state directory, so they stay well under any
// filesystem limit.
const maxCollectionName = 128

// CollectionConfig is the per-collection survey configuration: which
// task family the collection serves (task.Config, embedded — its Task
// tag is empty for pre-task configs, meaning "freq"), which mechanism
// privatizes reports under what parameters, and how many aggregation
// shards to spread ingestion over. The embedded fields marshal flat,
// so configs written before the task layer existed ({"mechanism":...,
// "epsilon":..., "domain":..., "shards":...}) parse unchanged.
type CollectionConfig struct {
	task.Config
	Shards int `json:"shards,omitempty"` // 0 = one per core
	// AdvanceQuota auto-advances a phased collection's round once it
	// has accepted this many reports (0 = rounds advance only via
	// POST .../advance). One-shot tasks ignore it.
	AdvanceQuota int `json:"advance_quota,omitempty"`
}

// Params returns the frequency-style privacy half of the configuration.
func (c CollectionConfig) Params() PrivacyParams {
	return PrivacyParams{Epsilon: c.Epsilon, Domain: c.Domain}
}

// FreqCollectionConfig builds the configuration of a frequency survey,
// the shape every collection had before the task layer.
func FreqCollectionConfig(mechanism string, p PrivacyParams, shards int) CollectionConfig {
	return CollectionConfig{Config: FreqTaskConfig(mechanism, p), Shards: shards}
}

// Collection is one named survey: an independent sharded aggregator
// plus the configuration it was created with, and the crash-safety
// state the write-ahead ingest path maintains (see journal.go).
type Collection struct {
	name string
	cfg  CollectionConfig
	agg  *ShardedAggregator

	// walMu orders journal appends against checkpoint rotation and
	// round advances: ingests hold it shared around append+fold, so an
	// exclusive holder (checkpoint, advance) knows every journaled
	// frame is folded and no fold straddles the boundary.
	walMu sync.RWMutex
	// journal is the collection's write-ahead log; nil when the server
	// runs memory-only (no Store attached).
	journal *journal
	// dedup remembers recently acknowledged batch IDs so client
	// retries are answered from the record instead of re-aggregated.
	dedup *dedupLRU
}

// Name returns the collection's registry name.
func (c *Collection) Name() string { return c.name }

// Config returns the configuration the collection was created with.
func (c *Collection) Config() CollectionConfig { return c.cfg }

// Aggregator returns the collection's sharded aggregator.
func (c *Collection) Aggregator() *ShardedAggregator { return c.agg }

// ValidateCollectionName checks that a name is usable as both a URL
// path segment and a snapshot file name: 1–128 characters drawn from
// [A-Za-z0-9._-], not starting with a dot (which rules out hidden
// files, "." and ".." in one stroke).
func ValidateCollectionName(name string) error {
	if name == "" {
		return fmt.Errorf("core: collection name must not be empty")
	}
	if len(name) > maxCollectionName {
		return fmt.Errorf("core: collection name longer than %d characters", maxCollectionName)
	}
	if name[0] == '.' {
		return fmt.Errorf("core: collection name must not start with %q", ".")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("core: collection name %q contains %q (allowed: letters, digits, '.', '_', '-')", name, r)
		}
	}
	return nil
}

// CollectionRegistry maps survey names to independent aggregators, the
// way deployed collectors run many concurrent studies in one process.
// It is safe for concurrent use.
type CollectionRegistry struct {
	mu   sync.RWMutex
	cols map[string]*Collection
	// folded maps strings.ToLower(name) -> name. Uniqueness is
	// enforced case-insensitively because snapshot files are named
	// after collections: on a case-insensitive filesystem (macOS,
	// Windows) "Study" and "study" would silently checkpoint into one
	// file, clobbering each other. Enforcing it everywhere keeps
	// behavior identical across platforms.
	folded map[string]string
}

// NewCollectionRegistry returns an empty registry.
func NewCollectionRegistry() *CollectionRegistry {
	return &CollectionRegistry{
		cols:   make(map[string]*Collection),
		folded: make(map[string]string),
	}
}

// Create validates the name and configuration, builds the collection's
// aggregator and registers it. Creating a name that already exists —
// exactly or up to letter case — is an error: two surveys under one
// name would silently pool reports across studies (and collide on one
// snapshot file on case-insensitive filesystems).
func (r *CollectionRegistry) Create(name string, cfg CollectionConfig) (*Collection, error) {
	if err := ValidateCollectionName(name); err != nil {
		return nil, err
	}
	// Normalize the task tag: configs from pre-task snapshots and
	// terse create bodies leave it empty (meaning freq). Storing the
	// resolved name means re-checkpointed snapshots are explicitly
	// tagged and config comparisons (ldpd's restored-vs-flags check)
	// don't see a phantom ""≠"freq" difference.
	cfg.Task = cfg.Type()
	// Fast-path duplicate check before the aggregator is built, so a
	// rejected create never pays the shards×domain allocation; the
	// authoritative re-check below runs under the write lock.
	r.mu.RLock()
	taken, exists := r.folded[strings.ToLower(name)]
	r.mu.RUnlock()
	if exists {
		return nil, duplicateNameError(name, taken)
	}
	agg, err := NewShardedAggregator(cfg.Config, cfg.Shards)
	if err != nil {
		return nil, err
	}
	c := &Collection{name: name, cfg: cfg, agg: agg, dedup: newDedupLRU()}
	r.mu.Lock()
	defer r.mu.Unlock()
	if taken, exists := r.folded[strings.ToLower(name)]; exists {
		return nil, duplicateNameError(name, taken)
	}
	r.cols[name] = c
	r.folded[strings.ToLower(name)] = name
	return c, nil
}

func duplicateNameError(name, taken string) error {
	if taken != name {
		return fmt.Errorf("core: collection %q %w up to letter case (as %q)", name, ErrCollectionExists, taken)
	}
	return fmt.Errorf("core: collection %q %w", name, ErrCollectionExists)
}

// Get returns the named collection, if registered.
func (r *CollectionRegistry) Get(name string) (*Collection, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.cols[name]
	return c, ok
}

// Len returns the number of registered collections.
func (r *CollectionRegistry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.cols)
}

// FoldedName returns the registered collection name matching the
// argument up to letter case, if any. Callers touching snapshot files
// for a name that failed an exact-match lookup consult it first: the
// file may belong to a live case-variant collection (see Store.Remove).
func (r *CollectionRegistry) FoldedName(name string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	live, ok := r.folded[strings.ToLower(name)]
	return live, ok
}

// DeleteIfEmpty removes exactly the given collection — identity, not
// just name — and only if it has aggregated no reports; it reports
// whether it removed it. The identity check keeps a stale rollback
// from destroying a same-named collection re-created in between, and
// the emptiness check (under the registry lock) closes, up to
// in-flight Adds that already resolved the collection, the window
// where a rollback would discard reports the server has acknowledged.
func (r *CollectionRegistry) DeleteIfEmpty(c *Collection) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.cols[c.name]
	if !ok || cur != c || c.agg.Collected() != 0 {
		return false
	}
	delete(r.cols, c.name)
	delete(r.folded, strings.ToLower(c.name))
	return true
}

// Delete removes the named collection and reports whether it existed.
// The collection's aggregate state is dropped with it; persistent
// deployments also remove the snapshot file (see Store.Remove).
func (r *CollectionRegistry) Delete(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.cols[name]; !ok {
		return false
	}
	delete(r.cols, name)
	delete(r.folded, strings.ToLower(name))
	return true
}

// Collections returns the registered collections sorted by name.
func (r *CollectionRegistry) Collections() []*Collection {
	r.mu.RLock()
	out := make([]*Collection, 0, len(r.cols))
	for _, c := range r.cols {
		out = append(out, c)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
