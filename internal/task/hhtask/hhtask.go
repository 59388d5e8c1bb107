// Package hhtask adapts the prefix-extending heavy-hitter method
// (internal/heavyhitters' PEM over a local-hashing oracle) to the
// task-generic aggregation interface as the first *phased* task: the
// flagship LDP problem of discovering frequent items from domains far
// too large to enumerate (RAPPOR's unknown dictionary, Apple's new
// words) served as an interactive multi-round protocol instead of a
// one-shot batch.
//
// The protocol runs one round per prefix level. The server publishes a
// frontier — the current round, the prefix length to report, and the
// prefixes that survived the previous round — and each participating
// client privatizes its value's prefix at that length with OLH and
// reports it tagged with the round. Advance closes a round: the
// round's reports score the children of the surviving prefixes, the
// top candidates survive into the next round, and after the final
// round the survivors (scaled to the full population) are the
// discovered heavy hitters, served through ?top=k estimates.
//
// Reports from a stale or future round are rejected with
// task.ErrWrongRound so a lagging client refetches the frontier; this
// is what keeps each user's single ε-budget report inside exactly one
// round. The round check reads the mutable round counter, so it lives
// in Fold (under the shard lock); PrepareBinary validates only what the
// immutable parameters decide.
package hhtask

import (
	"encoding/json"
	"fmt"
	"net/url"
	"sort"
	"strconv"

	"repro/internal/heavyhitters"
	"repro/internal/ldprand"
	"repro/internal/tally"
	"repro/internal/task"
)

func init() {
	task.Register(task.TypeHH, New)
}

// MechanismPEM is the prefix extending method, the hh family's first
// (and currently only) mechanism.
const MechanismPEM = "PEM"

// Mechanisms lists the hh mechanisms in presentation order.
func Mechanisms() []string { return []string{MechanismPEM} }

// maxRoundCandidates bounds the candidate set scored in any one round
// (survivor budget × per-round prefix growth). The cap turns a config
// like bits=60, levels=2 — whose first round would enumerate 2³⁰
// prefixes — into a creation error instead of an allocation storm at
// the first Advance.
const (
	maxRoundCandidatesLog2 = 20
	maxRoundCandidates     = 1 << maxRoundCandidatesLog2
)

// Phase names reported by estimates and /status.
const (
	PhaseCollecting = "collecting"
	PhaseDone       = "done"
)

// Envelope is the JSON wire format of one privatized hh report: the
// round it was privatized against plus the local-hashing report for
// the client's prefix at that round's length.
type Envelope struct {
	Mechanism string `json:"mechanism"`
	Round     int    `json:"round"`
	Seed      uint64 `json:"seed"`
	Bucket    int    `json:"bucket"`
}

// Prefix is one surviving prefix (or, after the final round, one
// discovered heavy hitter) with its estimated count.
type Prefix struct {
	Value uint64  `json:"value"`
	Count float64 `json:"count"`
}

// Frontier is the hh task's published per-round state: everything a
// client needs to participate in the current round, and — once done —
// the protocol's results.
type Frontier struct {
	Mechanism string  `json:"mechanism"`
	Round     int     `json:"round"`
	Levels    int     `json:"levels"`
	Bits      int     `json:"bits"`
	Epsilon   float64 `json:"epsilon"`
	// PrefixLen is the prefix length (in bits) clients report this
	// round; 0 once the protocol is done.
	PrefixLen int  `json:"prefix_len"`
	Done      bool `json:"done"`
	// Prefixes are the survivors of the last completed round, each
	// PrefixBits long — the candidate parents this round extends.
	PrefixBits int      `json:"prefix_bits"`
	Prefixes   []Prefix `json:"prefixes,omitempty"`
	// Hits are the final discovered heavy hitters, population-scaled;
	// set only when Done.
	Hits []Prefix `json:"hits,omitempty"`
}

// params converts the flat task configuration into PEM parameters.
func params(cfg task.Config) (heavyhitters.PEMParams, error) {
	if cfg.Mechanism != "" && cfg.Mechanism != MechanismPEM {
		return heavyhitters.PEMParams{}, fmt.Errorf("hhtask: unknown mechanism %q (have %v)", cfg.Mechanism, Mechanisms())
	}
	p := heavyhitters.PEMParams{
		Epsilon:         cfg.Epsilon,
		Bits:            cfg.Bits,
		Levels:          cfg.Levels,
		K:               cfg.K,
		CandidateBudget: cfg.Budget,
	}
	if err := p.Validate(); err != nil {
		return heavyhitters.PEMParams{}, err
	}
	// Bound every round's candidate set up front: round 0 enumerates
	// 2^PrefixLen(0) prefixes, round r extends Budget() survivors by
	// the round's prefix growth. The shifted comparison (base against
	// the limit >> grow, with grow itself bounded first) never
	// overflows — grow can reach 63, where a direct 1<<grow would wrap
	// negative and wave the config through to a panic at Advance.
	prev := 0
	for lvl := 0; lvl < p.Levels; lvl++ {
		grow := p.PrefixLen(lvl) - prev
		base := 1
		if lvl > 0 {
			base = p.Budget()
		}
		if grow > maxRoundCandidatesLog2 || base > maxRoundCandidates>>uint(grow) {
			return heavyhitters.PEMParams{}, fmt.Errorf(
				"hhtask: round %d would score %d×2^%d candidates, above the limit %d (raise levels or lower budget)",
				lvl, base, grow, maxRoundCandidates)
		}
		prev = p.PrefixLen(lvl)
	}
	return p, nil
}

// Aggregator is the server half of the PEM protocol: a phased
// task.Aggregator that accumulates the current round's local-hashing
// reports and, at each Advance, prunes the prefix frontier.
//
// Round state is a fixed-size accumulator, not a report list: the
// candidate set is frozen when the round opens (it is a deterministic
// function of the round and the survivors, so every shard freezes the
// same one), and each accepted report folds its 0/1 support indicator
// per candidate into a tally.Tally. Per-round memory is
// O(budget · 2^grow) — bounded by maxRoundCandidates — regardless of
// how many reports the round absorbs, and because the sums are
// integer-valued the accumulator is bit-identical to the report list
// it replaced: merges are exact vector adds, debiasing happens once at
// Advance via EstimateFromSupport, and EstimateCounts over the
// equivalent list produces the same floats bit for bit.
type Aggregator struct {
	params heavyhitters.PEMParams
	mech   heavyhitters.LHMech

	round     int
	done      bool
	prevUsers int // reports absorbed by completed rounds
	// survivors are the prefixes that survived the last completed
	// round (PrefixLen(round-1) bits each); nil at round 0, when the
	// only parent is the empty prefix.
	survivors []Prefix
	// cands is the current round's frozen candidate set; nil once done.
	cands []uint64
	// tally counts the current round's accepted reports (the n the
	// debiasing at Advance needs) and, in cell i, those supporting
	// cands[i]; it has no cells once done.
	tally tally.Tally
	hits  []Prefix // final population-scaled results, once done
}

// New builds an hh task aggregator: Bits-long items discovered over
// Levels rounds, returning the top K (Budget survivors per round).
func New(cfg task.Config) (task.Aggregator, error) {
	p, err := params(cfg)
	if err != nil {
		return nil, err
	}
	a := &Aggregator{params: p, mech: heavyhitters.NewLHMech(p.Epsilon)}
	a.openRound()
	return a, nil
}

// Type returns "hh".
func (a *Aggregator) Type() string { return task.TypeHH }

// Add validates and folds one round-tagged JSON envelope (task.Add).
func (a *Aggregator) Add(report json.RawMessage) error { return task.Add(a, report) }

// roundReport is a prepared envelope: the local-hashing report plus the
// round it was privatized against, which only Fold can judge.
type roundReport struct {
	round int
	rep   heavyhitters.LHReport
}

// Fold accumulates a prepared report (task.Preparer). Reports for any
// round but the current one — including any report once the protocol
// is done — are rejected wrapping task.ErrWrongRound.
func (a *Aggregator) Fold(prepared any) error {
	r, ok := prepared.(roundReport)
	if !ok {
		return fmt.Errorf("hhtask: cannot fold %T", prepared)
	}
	if a.done {
		return fmt.Errorf("hhtask: protocol completed all %d rounds: %w", a.params.Levels, task.ErrWrongRound)
	}
	if r.round != a.round {
		return fmt.Errorf("hhtask: report for round %d, collection at round %d: %w", r.round, a.round, task.ErrWrongRound)
	}
	a.mech.FoldSupport(r.rep, a.cands, a.tally.Cells)
	a.tally.N++
	return nil
}

// AddBatch folds a batch of envelopes, skipping invalid ones.
func (a *Aggregator) AddBatch(reports []json.RawMessage) (int, error) {
	return task.AddAll(a, reports)
}

// Collected returns the total reports absorbed across all rounds.
func (a *Aggregator) Collected() int { return a.prevUsers + a.RoundReports() }

// ReportBits returns the per-report payload size: the 64-bit hash seed
// plus the bucket index.
func (a *Aggregator) ReportBits() int { return 64 + bitsFor(a.mech.G()) }

// bitsFor returns ceil(log2(n)) for n >= 1.
func bitsFor(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// Reset restarts the protocol from round 0, discarding all reports,
// survivors and results.
func (a *Aggregator) Reset() {
	a.round, a.done, a.prevUsers = 0, false, 0
	a.survivors, a.hits = nil, nil
	a.openRound()
}

// Round returns the current round (task.Phased).
func (a *Aggregator) Round() int { return a.round }

// RoundReports returns the current round's report count (task.Phased).
func (a *Aggregator) RoundReports() int { return int(a.tally.N) }

// Done reports whether all rounds have completed (task.Phased).
func (a *Aggregator) Done() bool { return a.done }

// prefixBits returns the length of the current survivors' prefixes.
func (a *Aggregator) prefixBits() int {
	if a.round == 0 {
		return 0
	}
	return a.params.PrefixLen(a.round - 1)
}

// candidatesFor returns the candidate set round `round` scores given
// the previous round's survivors: every extension of the surviving
// prefixes to the round's prefix length, in deterministic order
// (survivor order × ascending extension). Aggregators that agree on
// round and survivors — which Merge enforces — therefore freeze
// identical candidate vectors, so their support sums add index-aligned.
func candidatesFor(p heavyhitters.PEMParams, round int, survivors []Prefix) []uint64 {
	prev := 0
	if round > 0 {
		prev = p.PrefixLen(round - 1)
	}
	grow := p.PrefixLen(round) - prev
	parents := []uint64{0} // round 0: the empty prefix
	if round > 0 {
		parents = make([]uint64, len(survivors))
		for i, s := range survivors {
			parents[i] = s.Value
		}
	}
	out := make([]uint64, 0, len(parents)<<uint(grow))
	for _, c := range parents {
		base := c << uint(grow)
		for ext := uint64(0); ext < 1<<uint(grow); ext++ {
			out = append(out, base|ext)
		}
	}
	return out
}

// openRound freezes the current round's candidate set and zeroes its
// accumulator. Called whenever the protocol position changes (fresh
// aggregator, reset, advance, phase adoption, state restore); once the
// protocol is done there is no round to score and the accumulator is
// released.
func (a *Aggregator) openRound() {
	if a.done {
		a.cands, a.tally = nil, tally.Tally{}
		return
	}
	a.cands = candidatesFor(a.params, a.round, a.survivors)
	a.tally = tally.New(len(a.cands))
}

// Advance closes the current round (task.Phased): the round's reports
// score the candidate extensions, the top Budget (top K at the final
// round) survive, and the round counter moves on. After the final
// round the survivors with positive counts, scaled from the final
// group to the full population, become the protocol's Hits.
//
// Advancing an empty round is legal — the protocol moves on with
// zero-count survivors (kept in candidate order) rather than stalling
// a deployment whose round quota was never met.
func (a *Aggregator) Advance() error {
	if a.done {
		return fmt.Errorf("hhtask: protocol already completed all %d rounds", a.params.Levels)
	}
	cands := a.cands
	roundUsers := a.RoundReports()
	counts := a.mech.EstimateFromSupport(a.tally.Cells, roundUsers)
	final := a.round == a.params.Levels-1
	keep := a.params.Budget()
	if final {
		keep = a.params.K
	}
	if keep > len(cands) {
		keep = len(cands)
	}
	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	// Stable, so equal counts tie-break by candidate order: Advance is
	// deterministic in the merged report multiset, never in arrival or
	// shard order (the support sums are integer-valued, so float
	// accumulation order cannot perturb them either).
	sort.SliceStable(idx, func(x, y int) bool { return counts[idx[x]] > counts[idx[y]] })
	kept := make([]Prefix, keep)
	for i := 0; i < keep; i++ {
		kept[i] = Prefix{Value: cands[idx[i]], Count: counts[idx[i]]}
	}
	a.survivors = kept
	a.prevUsers += roundUsers
	a.round++
	if final {
		a.done = true
		scale := float64(a.prevUsers) / float64(max(roundUsers, 1))
		hits := make([]Prefix, 0, len(kept))
		for _, s := range kept {
			if s.Count <= 0 {
				continue
			}
			hits = append(hits, Prefix{Value: s.Value, Count: s.Count * scale})
		}
		a.hits = hits
	}
	a.openRound()
	return nil
}

// Frontier returns the published round state (task.Phased).
func (a *Aggregator) Frontier() (json.RawMessage, error) {
	f := Frontier{
		Mechanism:  MechanismPEM,
		Round:      a.round,
		Levels:     a.params.Levels,
		Bits:       a.params.Bits,
		Epsilon:    a.params.Epsilon,
		Done:       a.done,
		PrefixBits: a.prefixBits(),
		Prefixes:   append([]Prefix(nil), a.survivors...),
		Hits:       append([]Prefix(nil), a.hits...),
	}
	if !a.done {
		f.PrefixLen = a.params.PrefixLen(a.round)
	}
	return json.Marshal(f)
}

// AdoptPhase aligns the receiver with from's protocol position,
// dropping its own reports and history (task.Phased; see the interface
// comment for how the sharding layer uses it).
func (a *Aggregator) AdoptPhase(from task.Aggregator) error {
	o, ok := from.(*Aggregator)
	if !ok {
		return task.MergeTypeError(a, from)
	}
	if o.params != a.params {
		return fmt.Errorf("hhtask: cannot adopt phase across parameters (%+v vs %+v)", o.params, a.params)
	}
	a.round, a.done = o.round, o.done
	a.survivors = append([]Prefix(nil), o.survivors...)
	a.hits = append([]Prefix(nil), o.hits...)
	a.prevUsers = 0
	a.openRound()
	return nil
}

// AdoptFrontier aligns the aggregator with a frontier published by
// another process's collection (task.FrontierAdopter) — the relay-side
// half of multi-node round coordination. The relay drops its own
// (already-flushed) round accumulator and opens the published round
// against the published survivors; because the candidate set is a
// deterministic function of round and survivors, the relay then
// freezes the same candidate vector as the upstream, so deltas cut
// from it merge index-aligned and bit-identically.
//
// The frontier's published parameters must match the receiver's, and
// its position must satisfy the same invariants UnmarshalState
// enforces; anything else is an error leaving the receiver unchanged.
func (a *Aggregator) AdoptFrontier(raw json.RawMessage) error {
	var f Frontier
	if err := json.Unmarshal(raw, &f); err != nil {
		return fmt.Errorf("hhtask: bad frontier: %w", err)
	}
	if f.Mechanism != MechanismPEM {
		return fmt.Errorf("hhtask: frontier mechanism %q does not match %q", f.Mechanism, MechanismPEM)
	}
	if f.Epsilon != a.params.Epsilon || f.Bits != a.params.Bits || f.Levels != a.params.Levels {
		return fmt.Errorf("hhtask: frontier parameters (eps=%v bits=%d levels=%d) do not match aggregator (eps=%v bits=%d levels=%d)",
			f.Epsilon, f.Bits, f.Levels, a.params.Epsilon, a.params.Bits, a.params.Levels)
	}
	if f.Round < 0 || f.Round > f.Levels {
		return fmt.Errorf("hhtask: frontier round %d outside [0,%d]", f.Round, f.Levels)
	}
	if f.Done != (f.Round == f.Levels) {
		return fmt.Errorf("hhtask: frontier done=%v inconsistent with round %d of %d levels", f.Done, f.Round, f.Levels)
	}
	wantBits := 0
	if f.Round > 0 {
		wantBits = a.params.PrefixLen(f.Round - 1)
	}
	if f.PrefixBits != wantBits {
		return fmt.Errorf("hhtask: frontier prefix_bits %d, want %d at round %d", f.PrefixBits, wantBits, f.Round)
	}
	for i, p := range f.Prefixes {
		if wantBits < 64 && p.Value >= 1<<uint(wantBits) {
			return fmt.Errorf("hhtask: frontier prefix %d value %d exceeds %d bits", i, p.Value, wantBits)
		}
	}
	if !f.Done {
		// Bound the candidate set the adopted round would freeze, the
		// same guard params() applies at creation: a hostile or corrupt
		// frontier must not turn into an allocation storm at openRound.
		grow := a.params.PrefixLen(f.Round) - wantBits
		parents := 1
		if f.Round > 0 {
			parents = len(f.Prefixes)
		}
		if grow > maxRoundCandidatesLog2 || parents > maxRoundCandidates>>uint(grow) {
			return fmt.Errorf("hhtask: frontier round %d would score %d×2^%d candidates, above the limit %d",
				f.Round, parents, grow, maxRoundCandidates)
		}
	}
	a.round, a.done = f.Round, f.Done
	a.survivors = append([]Prefix(nil), f.Prefixes...)
	a.hits = append([]Prefix(nil), f.Hits...)
	a.prevUsers = 0
	a.openRound()
	return nil
}

// virgin reports whether the aggregator has never absorbed a report or
// advanced a round — the state task.New returns, and the only state in
// which Merge may adopt another aggregator's phase wholesale.
func (a *Aggregator) virgin() bool {
	return a.round == 0 && !a.done && a.prevUsers == 0 && a.tally.N == 0
}

// Merge folds another hh aggregator's state into the receiver. The
// round tallies merge (both sides froze the same candidate set, so the
// cells are index-aligned) and the report counters add;
// the replicated phase state (round, survivors, results) must agree —
// merging across rounds is a protocol violation, not a recoverable
// condition, except into a virgin receiver (a fresh merge target),
// which adopts the other's phase first.
func (a *Aggregator) Merge(other task.Aggregator) error {
	o, ok := other.(*Aggregator)
	if !ok {
		return task.MergeTypeError(a, other)
	}
	if o.params != a.params {
		return fmt.Errorf("hhtask: cannot merge across parameters (%+v vs %+v)", o.params, a.params)
	}
	if a.virgin() && o.round != 0 {
		if err := a.AdoptPhase(o); err != nil {
			return err
		}
	}
	if a.round != o.round || a.done != o.done {
		return fmt.Errorf("hhtask: cannot merge round %d (done=%v) into round %d (done=%v): %w",
			o.round, o.done, a.round, a.done, task.ErrWrongRound)
	}
	if !samePrefixes(a.survivors, o.survivors) {
		return fmt.Errorf("hhtask: cannot merge diverged frontiers at round %d", a.round)
	}
	// A width mismatch is unreachable given equal params, round and
	// survivors; refusing beats silently misaligning the accumulators.
	if err := a.tally.Merge(o.tally); err != nil {
		return fmt.Errorf("hhtask: round %d: %w", a.round, err)
	}
	a.prevUsers += o.prevUsers
	return nil
}

func samePrefixes(a, b []Prefix) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Snapshot returns an independent deep copy of the aggregate state.
func (a *Aggregator) Snapshot() task.Aggregator {
	cp := *a
	cp.survivors = append([]Prefix(nil), a.survivors...)
	cp.cands = append([]uint64(nil), a.cands...)
	cp.tally = a.tally.Clone()
	cp.hits = append([]Prefix(nil), a.hits...)
	return &cp
}

// EstimateResult is the hh task's estimate payload: the protocol
// position plus, mid-protocol, the surviving frontier prefixes, or,
// once done, the discovered heavy hitters (?top=k caps either list).
type EstimateResult struct {
	Mechanism    string   `json:"mechanism"`
	Round        int      `json:"round"`
	Levels       int      `json:"levels"`
	Phase        string   `json:"phase"`
	RoundReports int      `json:"round_reports"`
	PrefixBits   int      `json:"prefix_bits"`
	Prefixes     []Prefix `json:"prefixes,omitempty"`
	Hits         []Prefix `json:"hits,omitempty"`
}

// Estimate answers an analyst query: the current frontier prefixes
// mid-protocol, the final heavy hitters once done; ?top=k keeps the k
// highest-count entries (the lists are already count-descending).
func (a *Aggregator) Estimate(query url.Values) (json.RawMessage, error) {
	res := EstimateResult{
		Mechanism:    MechanismPEM,
		Round:        a.round,
		Levels:       a.params.Levels,
		Phase:        PhaseCollecting,
		RoundReports: a.RoundReports(),
		PrefixBits:   a.prefixBits(),
		Prefixes:     append([]Prefix(nil), a.survivors...),
	}
	if a.done {
		res.Phase = PhaseDone
		res.Prefixes = nil
		res.Hits = append([]Prefix(nil), a.hits...)
	}
	if s := query.Get("top"); s != "" {
		k, err := strconv.Atoi(s)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("hhtask: top must be a positive integer, got %q", s)
		}
		if k < len(res.Prefixes) {
			res.Prefixes = res.Prefixes[:k]
		}
		if k < len(res.Hits) {
			res.Hits = res.Hits[:k]
		}
	}
	return json.Marshal(res)
}

// Client is the user-side half of the PEM protocol: it privatizes one
// value's prefix against a round published in the server's frontier. A
// nil source selects crypto/rand, the production configuration.
type Client struct {
	epsilon float64
	bits    int
	levels  int
	mech    heavyhitters.LHMech
	src     ldprand.Source
}

// NewClient returns a reporting client. The epsilon, bits and levels
// must match the collection's — clients read them straight from the
// frontier, which publishes all three.
func NewClient(epsilon float64, bits, levels int, src ldprand.Source) (*Client, error) {
	// K is irrelevant to the client half; validate the shared axes.
	p := heavyhitters.PEMParams{Epsilon: epsilon, Bits: bits, Levels: levels, K: 1}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		src = ldprand.NewCrypto()
	}
	return &Client{epsilon: epsilon, bits: bits, levels: levels, mech: heavyhitters.NewLHMech(epsilon), src: src}, nil
}

// Report privatizes value v's prefix at the given round's length into
// a round-tagged JSON wire envelope.
func (c *Client) Report(v uint64, round int) (json.RawMessage, error) {
	e, err := c.envelope(v, round)
	if err != nil {
		return nil, err
	}
	return json.Marshal(e)
}

// envelope privatizes value v's prefix at the given round's length.
func (c *Client) envelope(v uint64, round int) (Envelope, error) {
	if round < 0 || round >= c.levels {
		return Envelope{}, fmt.Errorf("hhtask: round %d outside [0,%d)", round, c.levels)
	}
	if c.bits < 64 && v >= 1<<uint(c.bits) {
		return Envelope{}, fmt.Errorf("hhtask: value %d exceeds %d bits", v, c.bits)
	}
	p := heavyhitters.PEMParams{Epsilon: c.epsilon, Bits: c.bits, Levels: c.levels, K: 1}
	shift := uint(c.bits - p.PrefixLen(round))
	r := c.mech.Privatize(v>>shift, c.src)
	return Envelope{Mechanism: MechanismPEM, Round: round, Seed: r.Seed, Bucket: r.Bucket}, nil
}
