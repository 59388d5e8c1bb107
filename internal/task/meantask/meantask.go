// Package meantask adapts the numeric-mean estimators (internal/mean:
// Duchi's minimax one-dimensional mechanism and the Harmony-style
// multidimensional extension) to the task-generic aggregation
// interface, so a collection server can run numeric surveys — "how
// many minutes of screen time today?" — next to frequency surveys.
//
// The wire envelope carries exactly what the client-side mechanism
// emits: a ±C value for Duchi, a sampled coordinate plus a ±C·d value
// for Harmony. The server verifies the report is one of the two legal
// magnitudes (anything else is a malformed or malicious report, and
// the mean packages panic on such input by design — they treat it as
// a caller bug, while here it arrives from the network).
package meantask

import (
	"encoding/json"
	"fmt"
	"math"
	"net/url"

	"repro/internal/ldprand"
	"repro/internal/mean"
	"repro/internal/task"
)

func init() {
	task.Register(task.TypeMean, New)
}

// Mechanism names of the mean task family.
const (
	MechanismDuchi   = "duchi"
	MechanismHarmony = "harmony"
)

// Mechanisms lists the mean mechanisms in presentation order.
func Mechanisms() []string { return []string{MechanismDuchi, MechanismHarmony} }

// reportTol is the magnitude tolerance when validating that a report
// equals ±C: the constant is computed from ε in one way on both sides,
// so the tolerance only absorbs decimal serialization of the value.
const reportTol = 1e-9

// Envelope is the JSON wire format of one privatized mean report.
type Envelope struct {
	Mechanism string  `json:"mechanism"`
	Coord     int     `json:"coord,omitempty"` // Harmony: sampled coordinate
	Value     float64 `json:"value"`           // ±C (Duchi) or ±C·dim (Harmony)
}

// Aggregator adapts one mean estimator to task.Aggregator. Exactly one
// of duchi/harmony is set, per the configured mechanism.
type Aggregator struct {
	mechanism string
	epsilon   float64
	duchi     *mean.Duchi
	harmony   *mean.Harmony
}

// validateConfig checks the parameters both the aggregator and the
// client constructors share (the mean packages panic on bad
// parameters by design; configs arrive from operators and the network
// and must error instead).
func validateConfig(cfg task.Config) error {
	if cfg.Epsilon <= 0 || math.IsNaN(cfg.Epsilon) || math.IsInf(cfg.Epsilon, 0) {
		return fmt.Errorf("meantask: epsilon must be positive and finite, got %v", cfg.Epsilon)
	}
	switch cfg.Mechanism {
	case MechanismDuchi:
		if cfg.Dim != 0 && cfg.Dim != 1 {
			return fmt.Errorf("meantask: duchi is one-dimensional, got dim %d (use harmony for vectors)", cfg.Dim)
		}
	case MechanismHarmony:
		if cfg.Dim < 1 {
			return fmt.Errorf("meantask: harmony needs dim >= 1, got %d", cfg.Dim)
		}
	default:
		return fmt.Errorf("meantask: unknown mechanism %q (have %v)", cfg.Mechanism, Mechanisms())
	}
	return nil
}

// New builds a mean task aggregator: Mechanism selects "duchi"
// (scalar) or "harmony" (Dim-dimensional vectors), under Epsilon.
func New(cfg task.Config) (task.Aggregator, error) {
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	if cfg.Mechanism == MechanismDuchi {
		return &Aggregator{mechanism: MechanismDuchi, epsilon: cfg.Epsilon,
			duchi: mean.NewDuchi(cfg.Epsilon, nil)}, nil
	}
	return &Aggregator{mechanism: MechanismHarmony, epsilon: cfg.Epsilon,
		harmony: mean.NewHarmony(cfg.Epsilon, cfg.Dim, nil)}, nil
}

// Type returns "mean".
func (a *Aggregator) Type() string { return task.TypeMean }

// Add validates and folds one JSON mean envelope (task.Add).
func (a *Aggregator) Add(report json.RawMessage) error { return task.Add(a, report) }

// prepareEnvelope validates a decoded envelope against the mechanism's
// immutable configuration.
func (a *Aggregator) prepareEnvelope(e Envelope) (any, error) {
	if e.Mechanism != a.mechanism {
		return nil, fmt.Errorf("meantask: envelope mechanism %q does not match aggregator %q", e.Mechanism, a.mechanism)
	}
	if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
		return nil, fmt.Errorf("meantask: report value %v is not finite", e.Value)
	}
	switch a.mechanism {
	case MechanismDuchi:
		if math.Abs(math.Abs(e.Value)-a.duchi.C()) > reportTol {
			return nil, fmt.Errorf("meantask: duchi report %v is not ±%v", e.Value, a.duchi.C())
		}
	default: // harmony
		if e.Coord < 0 || e.Coord >= a.harmony.Dim() {
			return nil, fmt.Errorf("meantask: coordinate %d out of range [0,%d)", e.Coord, a.harmony.Dim())
		}
		want := a.harmony.C() * float64(a.harmony.Dim())
		if math.Abs(math.Abs(e.Value)-want) > reportTol {
			return nil, fmt.Errorf("meantask: harmony report %v is not ±%v", e.Value, want)
		}
	}
	return e, nil
}

// Fold accumulates a prepared envelope (task.Preparer).
func (a *Aggregator) Fold(prepared any) error {
	e, ok := prepared.(Envelope)
	if !ok {
		return fmt.Errorf("meantask: prepared value %T is not a mean envelope", prepared)
	}
	if a.duchi != nil {
		a.duchi.Aggregate(e.Value)
		return nil
	}
	a.harmony.Aggregate(mean.HarmonyReport{Coord: e.Coord, Value: e.Value})
	return nil
}

// AddBatch folds a batch of envelopes, skipping invalid ones.
func (a *Aggregator) AddBatch(reports []json.RawMessage) (int, error) {
	return task.AddAll(a, reports)
}

// Collected returns the number of reports aggregated.
func (a *Aggregator) Collected() int {
	if a.duchi != nil {
		return a.duchi.Collected()
	}
	return a.harmony.Collected()
}

// ReportBits returns the report size: Duchi is one sign bit; Harmony
// adds the sampled coordinate index.
func (a *Aggregator) ReportBits() int {
	if a.duchi != nil {
		return 1
	}
	return 1 + bitsFor(a.harmony.Dim())
}

// bitsFor returns ceil(log2(n)) for n >= 1.
func bitsFor(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// Reset discards all aggregated reports.
func (a *Aggregator) Reset() {
	if a.duchi != nil {
		a.duchi.Reset()
		return
	}
	a.harmony.Reset()
}

// Merge folds another mean aggregator's state into the receiver.
func (a *Aggregator) Merge(other task.Aggregator) error {
	o, ok := other.(*Aggregator)
	if !ok {
		return task.MergeTypeError(a, other)
	}
	if o.mechanism != a.mechanism {
		return fmt.Errorf("meantask: cannot merge %s into %s", o.mechanism, a.mechanism)
	}
	if a.duchi != nil {
		return a.duchi.Merge(o.duchi)
	}
	return a.harmony.Merge(o.harmony)
}

// Snapshot returns an independent deep copy of the aggregate state.
func (a *Aggregator) Snapshot() task.Aggregator {
	cp := &Aggregator{mechanism: a.mechanism, epsilon: a.epsilon}
	if a.duchi != nil {
		cp.duchi = a.duchi.Snapshot()
	} else {
		cp.harmony = a.harmony.Snapshot()
	}
	return cp
}

// MarshalState serializes the estimator state (the blob carries the
// mechanism tag, so a restore onto the wrong mechanism is rejected).
func (a *Aggregator) MarshalState() ([]byte, error) {
	if a.duchi != nil {
		return a.duchi.MarshalState()
	}
	return a.harmony.MarshalState()
}

// UnmarshalState restores a state blob produced by MarshalState.
func (a *Aggregator) UnmarshalState(data []byte) error {
	if a.duchi != nil {
		return a.duchi.UnmarshalState(data)
	}
	return a.harmony.UnmarshalState(data)
}

// EstimateResult is the mean task's estimate payload: the unbiased
// mean estimate(s) with a worst-case 95% confidence half-width
// (1.96·sqrt(Var), Var the mechanism's analytic estimator variance at
// the collected population). Means is singleton for Duchi.
type EstimateResult struct {
	Mechanism string    `json:"mechanism"`
	Dim       int       `json:"dim"`
	Means     []float64 `json:"means"`
	CI95      float64   `json:"ci95"` // ± half-width per coordinate; 0 until reports arrive
}

// Estimate returns the mean estimate with its confidence half-width.
func (a *Aggregator) Estimate(query url.Values) (json.RawMessage, error) {
	res := EstimateResult{Mechanism: a.mechanism}
	n := a.Collected()
	if a.duchi != nil {
		res.Dim = 1
		res.Means = []float64{a.duchi.Estimate()}
		if n > 0 {
			res.CI95 = 1.96 * math.Sqrt(a.duchi.Variance(n))
		}
	} else {
		res.Dim = a.harmony.Dim()
		res.Means = a.harmony.Estimate()
		if n > 0 {
			res.CI95 = 1.96 * math.Sqrt(a.harmony.Variance(n))
		}
	}
	return json.Marshal(res)
}

// Client is the user-side half of the mean task: it privatizes one
// numeric record (a scalar for Duchi, a Dim-vector for Harmony, each
// entry clamped to [−1,1]) into a wire envelope. A nil source selects
// crypto/rand, the production configuration.
type Client struct {
	mechanism string
	dim       int
	duchi     *mean.Duchi
	harmony   *mean.Harmony
}

// NewClient returns a reporting client for the configured mechanism.
func NewClient(cfg task.Config, src ldprand.Source) (*Client, error) {
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	if cfg.Mechanism == MechanismDuchi {
		return &Client{mechanism: MechanismDuchi, dim: 1, duchi: mean.NewDuchi(cfg.Epsilon, src)}, nil
	}
	return &Client{mechanism: MechanismHarmony, dim: cfg.Dim, harmony: mean.NewHarmony(cfg.Epsilon, cfg.Dim, src)}, nil
}

// Dim returns the record dimension the client privatizes (1 for Duchi).
func (c *Client) Dim() int { return c.dim }

// Report privatizes one record into a wire envelope.
func (c *Client) Report(x []float64) (json.RawMessage, error) {
	e, err := c.envelope(x)
	if err != nil {
		return nil, err
	}
	return json.Marshal(e)
}

// envelope privatizes one record into the envelope both wire codecs
// serialize.
func (c *Client) envelope(x []float64) (Envelope, error) {
	if len(x) != c.dim {
		return Envelope{}, fmt.Errorf("meantask: record has %d values, want %d", len(x), c.dim)
	}
	for _, v := range x {
		if math.IsNaN(v) {
			return Envelope{}, fmt.Errorf("meantask: record value is NaN")
		}
	}
	if c.duchi != nil {
		return Envelope{Mechanism: MechanismDuchi, Value: c.duchi.Privatize(x[0])}, nil
	}
	r := c.harmony.Privatize(x)
	return Envelope{Mechanism: MechanismHarmony, Coord: r.Coord, Value: r.Value}, nil
}
