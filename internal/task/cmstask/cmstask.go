// Package cmstask is the server half of Apple's private sketch
// protocols (internal/cms holds the clients: Count-Mean-Sketch and its
// one-bit Hadamard variant) behind the task-generic aggregation
// interface, backed by the mergeable count-min substrate in
// internal/sketch. It is the only CMS/HCMS server: ldpd serves it, and
// the E5 experiment and the newwords example fold through it. It is
// the huge-domain task:
// items are arbitrary byte strings (words, URLs), never enumerated by
// the server, and analysts query the sketch for the counts of the
// candidates they care about — the heavy-hitter read over domains no
// frequency oracle could tabulate.
//
// Clients randomize locally with cms.Client/cms.HadamardClient; the
// server folds the debiased contribution of each report into a
// sketch.CountMin whose cells are then unbiased estimates of the true
// counts landing there. Because the backing sketch merges exactly and
// serializes exactly, the task inherits sharding and checkpointing for
// free.
package cmstask

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"net/url"

	"repro/internal/bitvec"
	"repro/internal/cms"
	"repro/internal/ldprand"
	"repro/internal/sketch"
	"repro/internal/task"
	"repro/internal/transform"
)

func init() {
	task.Register(task.TypeSketch, New)
}

// Mechanism names of the sketch task family.
const (
	MechanismCMS  = "CMS"
	MechanismHCMS = "HCMS"
)

// Mechanisms lists the sketch mechanisms in presentation order.
func Mechanisms() []string { return []string{MechanismCMS, MechanismHCMS} }

// Envelope is the JSON wire format of one privatized sketch report.
// CMS sets Bits (the perturbed ±1 row, packed as 0/1 bytes, base64);
// HCMS sets Index and Sign (one perturbed Hadamard coefficient).
type Envelope struct {
	Mechanism string `json:"mechanism"`
	Row       int    `json:"row"`
	Bits      string `json:"bits,omitempty"`
	Index     int    `json:"index,omitempty"`
	Sign      int8   `json:"sign,omitempty"`
}

// Aggregator adapts one private sketch to task.Aggregator. The backing
// CountMin holds debiased cell sums (CMS) or debiased Hadamard spectra
// (HCMS); its population total counts accepted reports, which is the n
// in the count-mean debiasing at estimate time.
type Aggregator struct {
	mechanism string
	params    cms.Params
	cEps      float64 // debias constant: (e^(ε/2)+1)/(e^(ε/2)−1) CMS, (e^ε+1)/(e^ε−1) HCMS
	// cmsWeights[b] is the debiased contribution k·(c_ε/2·v + 1/2) of
	// one CMS coordinate reporting bit b (v = −1, +1); computed once so
	// the per-cell fold is a table lookup and an add.
	cmsWeights [2]float64
	cm         *sketch.CountMin
}

// New builds a sketch task aggregator: Mechanism selects "CMS" or
// "HCMS"; Epsilon, Width, Hashes and SketchSeed fill the cms.Params.
// HCMS additionally requires a power-of-two width.
func New(cfg task.Config) (task.Aggregator, error) {
	p := cms.Params{Epsilon: cfg.Epsilon, Width: cfg.Width, Hashes: cfg.Hashes, Seed: cfg.SketchSeed}
	switch cfg.Mechanism {
	case MechanismCMS:
		if err := p.Validate(false); err != nil {
			return nil, err
		}
		e2 := math.Exp(p.Epsilon / 2)
		cEps := (e2 + 1) / (e2 - 1)
		k := float64(p.Hashes)
		// The float64 conversions round every intermediate, so no
		// platform may fuse the multiply into the add: the weights
		// are the per-cell expression bit for bit on every platform.
		weight := func(v float64) float64 { return float64(k * float64(float64(cEps/2*v)+0.5)) }
		return &Aggregator{mechanism: MechanismCMS, params: p, cEps: cEps,
			cmsWeights: [2]float64{weight(-1), weight(1)},
			cm:         sketch.NewCountMin(p.Hashes, p.Width, p.Seed)}, nil
	case MechanismHCMS:
		if err := p.Validate(true); err != nil {
			return nil, err
		}
		e := math.Exp(p.Epsilon)
		return &Aggregator{mechanism: MechanismHCMS, params: p, cEps: (e + 1) / (e - 1),
			cm: sketch.NewCountMin(p.Hashes, p.Width, p.Seed)}, nil
	default:
		return nil, fmt.Errorf("cmstask: unknown mechanism %q (have %v)", cfg.Mechanism, Mechanisms())
	}
}

// Type returns "sketch".
func (a *Aggregator) Type() string { return task.TypeSketch }

// Add validates one JSON sketch envelope and folds its debiased
// contribution into the backing sketch (task.Add).
func (a *Aggregator) Add(report json.RawMessage) error { return task.Add(a, report) }

// preparedCMS is a validated CMS row report, its ±1 coordinates packed
// one per bit. PrepareBinary produces it and Fold consumes it packed:
// the row is never expanded to a byte or an index per coordinate.
type preparedCMS struct {
	row  int
	bits bitvec.Vector // width bits; 1 encodes +1, 0 encodes −1
}

// preparedHCMS is a validated HCMS coefficient report.
type preparedHCMS struct {
	row, index int
	sign       int8
}

// checkCMSShape validates the row and width of one decoded CMS row
// report.
func (a *Aggregator) checkCMSShape(row, width int) error {
	if row < 0 || row >= a.params.Hashes {
		return fmt.Errorf("cmstask: row %d out of range [0,%d)", row, a.params.Hashes)
	}
	if width != a.params.Width {
		return fmt.Errorf("cmstask: report width %d, want %d", width, a.params.Width)
	}
	return nil
}

// prepareHCMSReport validates one decoded HCMS coefficient report. The
// sign arrives at full width and is narrowed only once it is ±1: the
// varint 257 would otherwise wrap to an accepted 1.
func (a *Aggregator) prepareHCMSReport(row, index int, sign int64) (any, error) {
	if row < 0 || row >= a.params.Hashes {
		return nil, fmt.Errorf("cmstask: row %d out of range [0,%d)", row, a.params.Hashes)
	}
	if index < 0 || index >= a.params.Width {
		return nil, fmt.Errorf("cmstask: index %d out of range [0,%d)", index, a.params.Width)
	}
	if sign != 1 && sign != -1 {
		return nil, fmt.Errorf("cmstask: sign must be ±1, got %d", sign)
	}
	return preparedHCMS{row: row, index: index, sign: int8(sign)}, nil
}

// Fold accumulates a prepared report (task.Preparer): every coordinate
// of a CMS row gets the debiased contribution k·(c_ε/2·v + 1/2), so
// each cell is an unbiased estimate of the true count landing there; a
// HCMS coefficient gets k·m·c_ε·sign, which cancels the 1/(k·m)
// chance of sampling it and the flip bias, so each cell is an unbiased
// estimate of its row's full-population Hadamard spectrum. The CMS row
// is the O(m) step that sets a sketch collection's throughput (README,
// "Fold kernels").
func (a *Aggregator) Fold(prepared any) error {
	switch p := prepared.(type) {
	case preparedCMS:
		if a.mechanism != MechanismCMS {
			break
		}
		p.bits.AddWeightsTo(a.cm.Row(p.row), &a.cmsWeights)
		a.cm.AddTotal(1)
		return nil
	case preparedHCMS:
		if a.mechanism != MechanismHCMS {
			break
		}
		a.cm.AddToCell(p.row, p.index,
			float64(a.params.Hashes)*float64(a.params.Width)*a.cEps*float64(p.sign))
		a.cm.AddTotal(1)
		return nil
	}
	return fmt.Errorf("cmstask: prepared value %T does not fit mechanism %s", prepared, a.mechanism)
}

// AddBatch folds a batch of envelopes, skipping invalid ones.
func (a *Aggregator) AddBatch(reports []json.RawMessage) (int, error) {
	return task.AddAll(a, reports)
}

// Collected returns the number of reports aggregated (the sketch's
// population total: exactly one unit per accepted report).
func (a *Aggregator) Collected() int { return int(a.cm.Total()) }

// ReportBits returns the report payload size: the m-coordinate row for
// CMS, one coefficient bit for HCMS (row and index ride shared
// randomness in a deployment, as the literature counts it).
func (a *Aggregator) ReportBits() int {
	if a.mechanism == MechanismCMS {
		return a.params.Width
	}
	return 1
}

// Reset discards all aggregated reports.
func (a *Aggregator) Reset() { a.cm.Reset() }

// Merge folds another sketch aggregator's state into the receiver; the
// backing sketches enforce the parameter match.
func (a *Aggregator) Merge(other task.Aggregator) error {
	o, ok := other.(*Aggregator)
	if !ok {
		return task.MergeTypeError(a, other)
	}
	if o.mechanism != a.mechanism || o.params != a.params {
		return fmt.Errorf("cmstask: cannot merge %s into %s (parameter mismatch)", o.mechanism, a.mechanism)
	}
	return a.cm.Merge(o.cm)
}

// Snapshot returns an independent deep copy of the aggregate state.
func (a *Aggregator) Snapshot() task.Aggregator {
	cp := *a
	cp.cm = a.cm.Snapshot()
	return &cp
}

// ItemCount is one queried item's estimate.
type ItemCount struct {
	Item  string  `json:"item"`
	Count float64 `json:"count"`
}

// EstimateResult is the sketch task's estimate payload: the unbiased
// count estimate of every queried item. The server never enumerates
// the domain — analysts name their candidates with ?item= parameters.
type EstimateResult struct {
	Mechanism string      `json:"mechanism"`
	Width     int         `json:"width"`
	Hashes    int         `json:"hashes"`
	Items     []ItemCount `json:"items"`
}

// Estimate answers ?item=a&item=b&... with per-item count estimates
// (an empty query returns an empty item list: the sketch has no
// domain to enumerate).
func (a *Aggregator) Estimate(query url.Values) (json.RawMessage, error) {
	items := query["item"]
	res := EstimateResult{
		Mechanism: a.mechanism,
		Width:     a.params.Width,
		Hashes:    a.params.Hashes,
		Items:     make([]ItemCount, 0, len(items)),
	}
	rows := make([][]float64, a.params.Hashes)
	for j := range rows {
		rows[j] = a.cm.Row(j)
	}
	if a.mechanism == MechanismHCMS && len(items) > 0 {
		// Invert every row's spectrum once, then read all items from it.
		for j, row := range rows {
			rows[j] = append([]float64(nil), row...)
			transform.Inverse(rows[j])
		}
	}
	for _, it := range items {
		res.Items = append(res.Items, ItemCount{Item: it, Count: a.countMean(rows, []byte(it))})
	}
	return json.Marshal(res)
}

// countMean is the count-mean debiased point estimate of item read
// from rows — the CMS cells, or the inverted HCMS spectra:
// (m/(m−1))·(mean over rows of the item's cell − n/m). Another
// parenthesization can move the result by an ulp; TestKernelCMSFold
// pins this one bit for bit.
func (a *Aggregator) countMean(rows [][]float64, item []byte) float64 {
	m := float64(a.params.Width)
	var sum float64
	for j, row := range rows {
		sum += row[a.params.Position(j, item)]
	}
	mean := sum / float64(a.params.Hashes)
	return (m / (m - 1)) * (mean - a.cm.Total()/m)
}

// Client is the user-side half of the sketch task: it privatizes one
// item (an arbitrary byte string) into a wire envelope, using the
// matching cms client. A nil source selects crypto/rand.
type Client struct {
	mechanism string
	cms       *cms.Client
	hcms      *cms.HadamardClient
}

// NewClient returns a reporting client for the configured mechanism.
func NewClient(cfg task.Config, src ldprand.Source) (*Client, error) {
	p := cms.Params{Epsilon: cfg.Epsilon, Width: cfg.Width, Hashes: cfg.Hashes, Seed: cfg.SketchSeed}
	switch cfg.Mechanism {
	case MechanismCMS:
		c, err := cms.NewClient(p, src)
		if err != nil {
			return nil, err
		}
		return &Client{mechanism: MechanismCMS, cms: c}, nil
	case MechanismHCMS:
		c, err := cms.NewHadamardClient(p, src)
		if err != nil {
			return nil, err
		}
		return &Client{mechanism: MechanismHCMS, hcms: c}, nil
	default:
		return nil, fmt.Errorf("cmstask: unknown mechanism %q (have %v)", cfg.Mechanism, Mechanisms())
	}
}

// Report privatizes one item into a wire envelope.
func (c *Client) Report(item []byte) (json.RawMessage, error) {
	var e Envelope
	if c.cms != nil {
		r := c.cms.Report(item)
		e = Envelope{Mechanism: MechanismCMS, Row: r.Row, Bits: base64.StdEncoding.EncodeToString(unpackBits(r.Bits))}
	} else {
		r := c.hcms.Report(item)
		e = Envelope{Mechanism: MechanismHCMS, Row: r.Row, Index: r.Index, Sign: r.Sign}
	}
	return json.Marshal(e)
}
