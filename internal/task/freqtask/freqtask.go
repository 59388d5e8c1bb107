// Package freqtask adapts the frequency-oracle family (internal/freq)
// to the task-generic aggregation interface (internal/task). It owns
// the frequency wire formats — the binary envelope, the JSON Envelope
// Translate turns into one, and the per-mechanism validation that
// network-received reports need.
//
// The adapter is behavior-identical to the pre-task frequency path:
// Add performs exactly the validation core.Aggregate performed, the
// aggregate state is the oracle state byte for byte (so pre-task
// checkpoints restore through it unchanged), and Estimate returns the
// same debiased counts /estimate always served.
package freqtask

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"

	"repro/internal/bitvec"
	"repro/internal/freq"
	"repro/internal/ldprand"
	"repro/internal/task"
)

func init() {
	task.Register(task.TypeFreq, New)
}

// maxSHEReal bounds each component of a network-received SHE report.
// The Laplace(2/ε) noise a real client adds has tails that die off as
// e^(-|x|ε/2), so 1e9 is unreachable by eight hundred standard
// deviations even at tiny ε; the cap exists to keep adversarial
// reports from overflowing the float64 sums.
const maxSHEReal = 1e9

// Mechanism names accepted by the oracle registry.
const (
	MechanismGRR = "GRR"
	MechanismSUE = "SUE"
	MechanismOUE = "OUE"
	MechanismSHE = "SHE"
	MechanismTHE = "THE"
	MechanismBLH = "BLH"
	MechanismOLH = "OLH"
	MechanismHRR = "HRR"
	MechanismSS  = "SS"
)

// Mechanisms lists the registry names in presentation order.
func Mechanisms() []string {
	return []string{
		MechanismGRR, MechanismSUE, MechanismOUE, MechanismSHE,
		MechanismTHE, MechanismBLH, MechanismOLH, MechanismHRR,
		MechanismSS,
	}
}

// NewOracle builds a frequency oracle by registry name. A nil source
// selects crypto/rand.
func NewOracle(name string, epsilon float64, domain int, src ldprand.Source) (freq.Oracle, error) {
	if epsilon <= 0 {
		return nil, fmt.Errorf("freqtask: epsilon must be positive, got %v", epsilon)
	}
	if domain < 2 {
		return nil, fmt.Errorf("freqtask: domain must be at least 2, got %d", domain)
	}
	switch name {
	case MechanismGRR:
		return freq.NewGRR(epsilon, domain, src), nil
	case MechanismSUE:
		return freq.NewSUE(epsilon, domain, src), nil
	case MechanismOUE:
		return freq.NewOUE(epsilon, domain, src), nil
	case MechanismSHE:
		return freq.NewSHE(epsilon, domain, src), nil
	case MechanismTHE:
		return freq.NewTHE(epsilon, domain, src), nil
	case MechanismBLH:
		return freq.NewBLH(epsilon, domain, src), nil
	case MechanismOLH:
		return freq.NewOLH(epsilon, domain, src), nil
	case MechanismHRR:
		return freq.NewHRR(epsilon, domain, src), nil
	case MechanismSS:
		return freq.NewSS(epsilon, domain, src), nil
	default:
		names := Mechanisms()
		sort.Strings(names)
		return nil, fmt.Errorf("freqtask: unknown mechanism %q (have %v)", name, names)
	}
}

// Envelope is the JSON wire format of one privatized frequency report.
// Exactly the fields relevant to the mechanism are set; everything a
// server receives has already been randomized on the client.
type Envelope struct {
	Mechanism string    `json:"mechanism"`
	Value     int       `json:"value,omitempty"`  // GRR report / LH bucket / HRR index
	Seed      uint64    `json:"seed,omitempty"`   // LH hash seed
	Bits      string    `json:"bits,omitempty"`   // UE/THE bit vector, base64
	Reals     []float64 `json:"reals,omitempty"`  // SHE noisy vector
	Sign      int8      `json:"sign,omitempty"`   // HRR coefficient sign
	Values    []int     `json:"values,omitempty"` // SS subset report
}

// Privatize runs the client half of the oracle on value v and wraps
// the report in an Envelope.
func Privatize(o freq.Oracle, v int) (e Envelope, err error) {
	bits, err := privatize(o, v, &e)
	if err != nil {
		return Envelope{}, err
	}
	if bits != nil {
		e.Bits = base64.StdEncoding.EncodeToString(bits)
	}
	return e, nil
}

// privatize runs the client half of the oracle on value v into e's
// fields, save a unary mechanism's bit vector, which comes back packed
// in bits — the one form both wires build theirs from.
func privatize(o freq.Oracle, v int, e *Envelope) (bits []byte, err error) {
	e.Mechanism = o.Name()
	switch m := o.(type) {
	case *freq.GRR:
		e.Value = m.Privatize(v)
	case freq.BinaryRR:
		e.Value = m.Privatize(v)
	case *freq.UE:
		bits, err = m.Privatize(v).MarshalBinary()
	case *freq.SHE:
		e.Reals = m.Privatize(v)
	case *freq.THE:
		bits, err = m.Privatize(v).MarshalBinary()
	case *freq.LH:
		r := m.Privatize(v)
		e.Seed, e.Value = r.Seed, r.Bucket
	case *freq.HRR:
		r := m.Privatize(v)
		e.Value, e.Sign = r.Index, r.Sign
	case *freq.SS:
		e.Values = m.Privatize(v)
	default:
		err = fmt.Errorf("freqtask: unsupported oracle type %T", o)
	}
	return bits, err
}

// prepareEnvelope validates e — the fields PrepareBinary read from a
// binary envelope; a unary bit vector goes to decodeBitsRaw instead —
// against the oracle's configuration and returns the typed report the
// oracle aggregates. It reads no aggregate state.
func prepareEnvelope(o freq.Oracle, e Envelope) (any, error) {
	if e.Mechanism != o.Name() {
		return nil, fmt.Errorf("freqtask: envelope mechanism %q does not match oracle %q", e.Mechanism, o.Name())
	}
	switch m := o.(type) {
	case *freq.GRR:
		return prepareGRR(m, e)
	case freq.BinaryRR:
		return prepareGRR(m.GRR, e)
	case *freq.SHE:
		if len(e.Reals) != m.Domain() {
			return nil, fmt.Errorf("freqtask: SHE vector length %d, want %d", len(e.Reals), m.Domain())
		}
		// A legitimate SHE component is one-hot plus Laplace(2/ε) noise
		// — astronomically unlikely to stray past single digits, let
		// alone maxSHEReal. Unbounded components would let a client
		// push the sums to ±Inf (two 1.7e308 reports suffice), which
		// poisons the aggregate and makes its JSON state unmarshalable,
		// wedging every later checkpoint of the collection.
		for _, x := range e.Reals {
			if math.IsNaN(x) || x > maxSHEReal || x < -maxSHEReal {
				return nil, fmt.Errorf("freqtask: SHE component %v outside [-%g, %g]", x, maxSHEReal, maxSHEReal)
			}
		}
		return e.Reals, nil
	case *freq.LH:
		if e.Value < 0 || e.Value >= m.G() {
			return nil, fmt.Errorf("freqtask: LH bucket %d out of range [0,%d)", e.Value, m.G())
		}
		return freq.LHReport{Seed: e.Seed, Bucket: e.Value}, nil
	case *freq.HRR:
		if e.Value < 0 || e.Value >= m.PaddedDomain() {
			return nil, fmt.Errorf("freqtask: HRR index %d out of range", e.Value)
		}
		if e.Sign != 1 && e.Sign != -1 {
			return nil, fmt.Errorf("freqtask: HRR sign %d must be ±1", e.Sign)
		}
		return freq.HRRReport{Index: e.Value, Sign: e.Sign}, nil
	case *freq.SS:
		if len(e.Values) != m.K() {
			return nil, fmt.Errorf("freqtask: SS subset size %d, want %d", len(e.Values), m.K())
		}
		seen := make(map[int]bool, len(e.Values))
		for _, u := range e.Values {
			if u < 0 || u >= m.Domain() || seen[u] {
				return nil, fmt.Errorf("freqtask: SS subset value %d invalid or duplicated", u)
			}
			seen[u] = true
		}
		return e.Values, nil
	default:
		return nil, fmt.Errorf("freqtask: unsupported oracle type %T", o)
	}
}

func prepareGRR(m *freq.GRR, e Envelope) (any, error) {
	if e.Value < 0 || e.Value >= m.Domain() {
		return nil, fmt.Errorf("freqtask: GRR value %d out of domain [0,%d)", e.Value, m.Domain())
	}
	return e.Value, nil
}

// foldPrepared accumulates a value produced by prepareEnvelope on an
// oracle of the same configuration.
func foldPrepared(o freq.Oracle, prepared any) error {
	switch m := o.(type) {
	case *freq.GRR:
		if v, ok := prepared.(int); ok {
			m.Aggregate(v)
			return nil
		}
	case freq.BinaryRR:
		if v, ok := prepared.(int); ok {
			m.GRR.Aggregate(v)
			return nil
		}
	case *freq.UE:
		if v, ok := prepared.(*bitvec.Vector); ok {
			m.Aggregate(v)
			return nil
		}
	case *freq.SHE:
		if v, ok := prepared.([]float64); ok {
			m.Aggregate(v)
			return nil
		}
	case *freq.THE:
		if v, ok := prepared.(*bitvec.Vector); ok {
			m.Aggregate(v)
			return nil
		}
	case *freq.LH:
		if v, ok := prepared.(freq.LHReport); ok {
			m.Aggregate(v)
			return nil
		}
	case *freq.HRR:
		if v, ok := prepared.(freq.HRRReport); ok {
			m.Aggregate(v)
			return nil
		}
	case *freq.SS:
		if v, ok := prepared.([]int); ok {
			m.Aggregate(v)
			return nil
		}
	}
	return fmt.Errorf("freqtask: prepared value %T does not fit oracle %T", prepared, o)
}

// Aggregator adapts one frequency oracle to task.Aggregator.
type Aggregator struct {
	oracle freq.Oracle
}

// New builds a frequency task aggregator from a task configuration:
// Mechanism names the oracle, Epsilon and Domain parameterize it.
func New(cfg task.Config) (task.Aggregator, error) {
	o, err := NewOracle(cfg.Mechanism, cfg.Epsilon, cfg.Domain, nil)
	if err != nil {
		return nil, err
	}
	return &Aggregator{oracle: o}, nil
}

// Type returns "freq".
func (a *Aggregator) Type() string { return task.TypeFreq }

// Add validates and folds one Envelope (as raw JSON) (task.Add).
func (a *Aggregator) Add(report json.RawMessage) error { return task.Add(a, report) }

// Fold accumulates a prepared report (task.Preparer).
func (a *Aggregator) Fold(prepared any) error {
	return foldPrepared(a.oracle, prepared)
}

// AddBatch folds a batch of envelopes, skipping invalid ones.
func (a *Aggregator) AddBatch(reports []json.RawMessage) (int, error) {
	return task.AddAll(a, reports)
}

// Collected returns the number of reports aggregated.
func (a *Aggregator) Collected() int { return a.oracle.Collected() }

// ReportBits returns the mechanism's per-report payload size.
func (a *Aggregator) ReportBits() int { return a.oracle.ReportBits() }

// Reset discards all aggregated reports.
func (a *Aggregator) Reset() { a.oracle.Reset() }

// Merge folds another freq aggregator's state into the receiver.
func (a *Aggregator) Merge(other task.Aggregator) error {
	o, ok := other.(*Aggregator)
	if !ok {
		return task.MergeTypeError(a, other)
	}
	return a.oracle.Merge(o.oracle)
}

// Snapshot returns an independent deep copy of the aggregate state.
func (a *Aggregator) Snapshot() task.Aggregator {
	return &Aggregator{oracle: a.oracle.Snapshot()}
}

// MarshalState serializes the oracle state: the blob is exactly the
// oracle's own binary layout.
func (a *Aggregator) MarshalState() ([]byte, error) { return a.oracle.MarshalState() }

// UnmarshalState restores a state blob produced by MarshalState.
func (a *Aggregator) UnmarshalState(data []byte) error { return a.oracle.UnmarshalState(data) }

// EstimateResult is the frequency task's estimate payload: debiased
// counts over the full domain, plus the top-k values when the query
// asked for them (?top=k), the cheap heavy-hitter read over enumerable
// domains.
type EstimateResult struct {
	Mechanism string      `json:"mechanism"`
	Domain    int         `json:"domain"`
	Counts    []float64   `json:"counts"`
	Top       []ValueHits `json:"top,omitempty"`
}

// ValueHits is one entry of the top-k listing.
type ValueHits struct {
	Value int     `json:"value"`
	Count float64 `json:"count"`
}

// Estimate returns the debiased count estimates; ?top=k adds the k
// largest values in descending count order.
func (a *Aggregator) Estimate(query url.Values) (json.RawMessage, error) {
	res := EstimateResult{
		Mechanism: a.oracle.Name(),
		Domain:    a.oracle.Domain(),
		Counts:    a.oracle.EstimateCounts(),
	}
	if s := query.Get("top"); s != "" {
		k, err := strconv.Atoi(s)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("freqtask: top must be a positive integer, got %q", s)
		}
		res.Top = topK(res.Counts, k)
	}
	return json.Marshal(res)
}

// topK returns the k highest-count values, ties broken by value order.
func topK(counts []float64, k int) []ValueHits {
	all := make([]ValueHits, len(counts))
	for v, c := range counts {
		all[v] = ValueHits{Value: v, Count: c}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Count > all[j].Count })
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}
