// Package task defines the task-generic aggregation contract the
// collection stack is built over. The tutorial treats LDP as a family
// of *tasks* — frequency oracles, numeric means, heavy hitters over
// huge domains, sketch-based counting — and a production collector
// serves several of them at once. An Aggregator is the server half of
// one task: it absorbs privatized reports (binary payloads in a layout
// the task defines), merges exactly with its peers (every
// accumulator in the repository is linear, which is what makes sharded
// aggregation and checkpointing sound), serializes its state in one
// versioned binary layout for restarts and relay deltas, and answers
// task-defined estimate queries.
//
// New task families register a Factory under their type name; the
// sharding, persistence and HTTP layers in internal/core are written
// against this interface only, so a new mechanism family ships as a
// small adapter package instead of a fork of the serving stack.
package task

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"sort"
	"sync"

	"repro/internal/binenc"
)

// Task type names of the built-in adapter packages. The names are part
// of the wire and snapshot formats: collection configs and checkpoint
// envelopes carry them, so they must stay stable.
const (
	TypeFreq   = "freq"
	TypeMean   = "mean"
	TypeSketch = "sketch"
	TypeHH     = "hh"
)

// Aggregator is the server half of one LDP task. Implementations are
// not safe for concurrent use; the sharding layer serializes access
// per shard and merges.
type Aggregator interface {
	// Type returns the task type name the aggregator registers under
	// (e.g. "freq").
	Type() string
	// Add validates one privatized report envelope (raw JSON in the
	// task's schema) and folds it into the aggregate: Translate, then
	// PrepareBinary and Fold. Envelopes arrive from the network:
	// malformed ones must error, never panic.
	Add(report json.RawMessage) error
	// Preparer is Add in its steps, which is how the sharding layer
	// ingests: decode outside the shard lock, fold under it.
	Preparer
	// AddBatch folds a batch of envelopes, skipping invalid ones. It
	// returns how many were accepted plus a bounded joined error
	// describing the rejects (see AddAll).
	AddBatch(reports []json.RawMessage) (int, error)
	// Collected returns the number of reports aggregated so far.
	Collected() int
	// ReportBits returns the (approximate) size of one report in bits,
	// the communication-cost axis of the deployed systems.
	ReportBits() int
	// Reset discards all aggregated reports.
	Reset()
	// Merge folds other's aggregate state into the receiver. The two
	// aggregators must be the same task type with identical parameters;
	// anything else is an error. Merge is exact: the merged aggregator
	// estimates as if it had absorbed every report itself.
	Merge(other Aggregator) error
	// Snapshot returns an independent deep copy of the aggregate state,
	// safe to Merge or estimate from while the original keeps
	// collecting.
	Snapshot() Aggregator
	// MarshalState serializes the aggregate state (tallies plus the
	// parameters that debias them) in the task's binary layout — the
	// one state format checkpoints, journal merge frames and relay
	// deltas carry. The first byte is a format version tag. Integer
	// tallies and raw float64 words round-trip exactly, so Marshal →
	// Unmarshal reproduces estimates and frontiers bit for bit.
	MarshalState() ([]byte, error)
	// UnmarshalState replaces the aggregate state with a previously
	// marshalled one. The version tag is checked before anything else
	// is read and unknown versions are refused; malformed input
	// (truncated, bit-flipped, length-lying) must return an error,
	// never panic or over-allocate. The state must come from the same
	// task and parameters; any error leaves the receiver unchanged.
	UnmarshalState(data []byte) error
	// Estimate answers one analyst query with a task-defined JSON
	// response (frequency counts, mean ± CI, per-item sketch counts).
	// The query carries the URL parameters of GET /estimate; tasks
	// ignore parameters they do not define.
	Estimate(query url.Values) (json.RawMessage, error)
}

// Config is the JSON-serializable configuration of one task instance.
// It is the union of every built-in task's parameters — which fields
// are read (and which must be set) depends on Task — so collection
// configs and snapshots stay one flat, versionable object:
//
//	freq:   Mechanism (oracle registry name), Epsilon, Domain
//	mean:   Mechanism ("duchi" or "harmony"), Epsilon, Dim (harmony)
//	sketch: Mechanism ("CMS" or "HCMS"), Epsilon, Width, Hashes, SketchSeed
//	hh:     Mechanism ("PEM"), Epsilon, Bits, Levels, K, Budget
type Config struct {
	Task       string  `json:"task,omitempty"` // "" means TypeFreq (pre-task configs)
	Mechanism  string  `json:"mechanism"`
	Epsilon    float64 `json:"epsilon"`
	Domain     int     `json:"domain,omitempty"`
	Dim        int     `json:"dim,omitempty"`
	Width      int     `json:"width,omitempty"`
	Hashes     int     `json:"hashes,omitempty"`
	SketchSeed uint64  `json:"sketch_seed,omitempty"`
	Bits       int     `json:"bits,omitempty"`   // hh: item length in bits
	Levels     int     `json:"levels,omitempty"` // hh: protocol rounds (prefix stages)
	K          int     `json:"k,omitempty"`      // hh: heavy hitters to return
	Budget     int     `json:"budget,omitempty"` // hh: surviving prefixes kept per round (0 = 2·K)
}

// Type returns the effective task type: Task, or TypeFreq when unset —
// configs written before the task layer existed carry no tag and were
// all frequency surveys.
func (c Config) Type() string {
	if c.Task == "" {
		return TypeFreq
	}
	return c.Task
}

// Preparer splits Add into its steps. Translate appends the binary
// payload of one JSON envelope to w: JSON is an edge codec, and past it
// a report is only its binary payload. PrepareBinary parses and
// validates one payload into a typed, fold-ready value — the one
// decoder — and Fold accumulates it. Decoding is the expensive part,
// so the sharding layer runs it outside the shard lock and only Fold
// under it: concurrent batches contend on vector adds.
//
// Contract: Translate and PrepareBinary touch only the aggregator's
// immutable configuration, so they are safe without synchronization
// while other goroutines Fold, and a value prepared by one instance
// folds into any instance of the same configuration. What Translate
// writes is never empty (every layout leads with its version byte), and
// it refuses only what the binary layout cannot express; the sharding
// layer journals such an envelope as an empty payload, which every
// PrepareBinary refuses. Fold must accept exactly the values
// PrepareBinary returns; whatever depends on mutable state (a phased
// task's round) is Fold's to check, and its error rejects the report.
type Preparer interface {
	Translate(w *binenc.Writer, envelope json.RawMessage) error
	PrepareBinary(payload []byte) (any, error)
	Fold(prepared any) error
}

// BinaryReporter is Preparer's name from when the binary wire was an
// optional capability.
type BinaryReporter = Preparer

// Add is Aggregator.Add for the adapters: Translate, PrepareBinary,
// Fold.
func Add(p Preparer, envelope json.RawMessage) error {
	w := binenc.NewWriter()
	defer w.Release()
	if err := p.Translate(w, envelope); err != nil {
		return err
	}
	prepared, err := p.PrepareBinary(w.Bytes())
	if err != nil {
		return err
	}
	return p.Fold(prepared)
}

// Factory builds an empty Aggregator from a configuration, validating
// it (a factory error is a caller/config error, never a panic).
type Factory func(cfg Config) (Aggregator, error)

var (
	regMu     sync.RWMutex
	factories = make(map[string]Factory)
)

// Register installs the factory for a task type name. Adapter packages
// call it from init; registering a duplicate name panics (two adapters
// claiming one wire name is a build mistake, not a runtime condition).
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("task: Register needs a name and a factory")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := factories[name]; dup {
		panic(fmt.Sprintf("task: type %q registered twice", name))
	}
	factories[name] = f
}

// New builds an aggregator for cfg, dispatching on cfg.Type().
func New(cfg Config) (Aggregator, error) {
	name := cfg.Type()
	regMu.RLock()
	f, ok := factories[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("task: unknown task type %q (registered: %v)", name, Types())
	}
	return f(cfg)
}

// Registered reports whether a task type name has a factory.
func Registered(name string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := factories[name]
	return ok
}

// Types returns the registered task type names, sorted.
func Types() []string {
	regMu.RLock()
	out := make([]string, 0, len(factories))
	for name := range factories {
		out = append(out, name)
	}
	regMu.RUnlock()
	sort.Strings(out)
	return out
}

// maxJoinedErrors bounds how many per-envelope rejections AddAll
// spells out: a systematically misconfigured client rejects an entire
// batch, and an unbounded join would build a multi-megabyte error that
// HTTP handlers then echo into response bodies.
const maxJoinedErrors = 16

// AddAll folds a batch of envelopes into a, skipping invalid ones, and
// returns the accepted count plus a joined error (detailed up to
// maxJoinedErrors rejects, then summarized). Adapters implement
// AddBatch with it; the sharding layer has its own chunked variant.
func AddAll(a Aggregator, reports []json.RawMessage) (int, error) {
	accepted, suppressed := 0, 0
	var errs []error
	for i, r := range reports {
		if err := a.Add(r); err != nil {
			if len(errs) < maxJoinedErrors {
				errs = append(errs, fmt.Errorf("envelope %d: %w", i, err))
			} else {
				suppressed++
			}
			continue
		}
		accepted++
	}
	if suppressed > 0 {
		errs = append(errs, fmt.Errorf("and %d more rejected envelopes", suppressed))
	}
	return accepted, errors.Join(errs...)
}

// MergeTypeError reports an attempt to merge across task types or
// implementations, for adapters to share.
func MergeTypeError(dst, src Aggregator) error {
	return fmt.Errorf("task: cannot merge %s (%T) into %s (%T)", src.Type(), src, dst.Type(), dst)
}
