// Package freq implements the family of locally differentially private
// frequency oracles that the tutorial is organized around (§1.1–§1.2):
// Warner's randomized response, generalized randomized response (direct
// encoding), the unary encodings (SUE, OUE), histogram encodings (SHE,
// THE), local hashing (BLH, OLH) and Hadamard randomized response.
//
// Every mechanism satisfies ε-LDP: for any two inputs v, v' and any
// report r, Pr[r|v] <= e^ε · Pr[r|v']. Every estimator is unbiased, and
// each mechanism exposes its analytic estimator variance so experiments
// can compare empirical against theoretical error, which is exactly the
// comparison Wang et al. (USENIX Security 2017) tabulate.
//
// A mechanism is used either through its concrete client/server halves
// (Privatize / Aggregate, for distributed collection) or through the
// Oracle interface, which runs both halves in-process for simulations.
//
// All but two are one estimator: count how many reports support each
// value, then debias by (c − n·q)/(p − q). GRR, the unary encodings,
// THE, local hashing and subset selection therefore share one state, a
// tally.Tally, behind the unexported counting base (counting.go), and
// differ only in their parameters and fold kernels. SHE sums Laplace
// noise and HRR sums debiased ±1 coefficients; their states are float
// vectors of their own.
package freq

import (
	"fmt"
	"math"

	"repro/internal/ldprand"
)

// Oracle is a complete frequency-estimation protocol over the integer
// domain [0, Domain()). Implementations are not safe for concurrent use;
// run one oracle per goroutine or shard and merge counts.
type Oracle interface {
	// Name identifies the mechanism (e.g. "OLH").
	Name() string
	// Epsilon returns the privacy budget the oracle was built with.
	Epsilon() float64
	// Domain returns the size d of the input domain.
	Domain() int
	// Collect runs the client-side protocol on value v and folds the
	// resulting report into the aggregate. It panics if v is outside
	// [0, Domain()): feeding garbage to the encoder is a caller bug.
	Collect(v int)
	// Collected returns the number of reports aggregated so far.
	Collected() int
	// EstimateCounts returns unbiased estimates of the count of every
	// domain value among the collected reports.
	EstimateCounts() []float64
	// TheoreticalVariance returns the variance of a single count
	// estimate after n reports, in the low-frequency approximation
	// (f→0) the literature uses for comparisons.
	TheoreticalVariance(n int) float64
	// ReportBits returns the (approximate) size of one report in bits,
	// the communication cost axis of the deployed systems.
	ReportBits() int
	// Reset discards all aggregated reports.
	Reset()
	// Merge folds other's aggregate state (its accumulated reports)
	// into the receiver. The two oracles must be the same mechanism
	// with identical parameters; anything else is an error. Every
	// accumulator in this package is linear — a count vector or a sum
	// vector — so Merge(a, b) is exact: the merged oracle estimates as
	// if it had aggregated every report itself. This is the
	// mergeability property that makes sharded aggregation sound.
	Merge(other Oracle) error
	// Snapshot returns an independent deep copy of the oracle's
	// aggregate state, safe to Merge or estimate from while the
	// original keeps collecting. The copy shares the randomness
	// source, so use snapshots for reads and merging, not for
	// concurrent privatization.
	Snapshot() Oracle
	// MarshalState serializes the oracle's aggregate state (the
	// accumulated tallies plus the parameters that debias them) in
	// the mechanism's versioned binary layout (see binary.go).
	// Integer tallies and raw float64 words round-trip exactly, so
	// Marshal → Unmarshal reproduces the estimates bit for bit — the
	// property the checkpoint/restore cycle of a collection server
	// depends on.
	MarshalState() ([]byte, error)
	// UnmarshalState replaces the oracle's aggregate state with a
	// previously marshalled one. The state must come from the same
	// mechanism with identical parameters (anything else is an
	// error and leaves the receiver unchanged): the parameters are
	// serialized alongside the tallies precisely so a restore onto
	// a differently-configured oracle cannot silently debias with
	// the wrong constants.
	UnmarshalState(data []byte) error
}

// mergeTypeError reports an attempt to merge across mechanisms.
func mergeTypeError(dst, src Oracle) error {
	return fmt.Errorf("freq: cannot merge %s (%T) into %s (%T)", src.Name(), src, dst.Name(), dst)
}

// mergeParamError reports a same-mechanism merge with incompatible
// parameters.
func mergeParamError(name string) error {
	return fmt.Errorf("freq: %s merge parameter mismatch", name)
}

// stateDecodeError reports unparseable serialized state.
func stateDecodeError(name string, err error) error {
	return fmt.Errorf("freq: %s state: %w", name, err)
}

// stateParamError reports an attempt to restore state onto an oracle
// with different parameters (or a different mechanism entirely).
func stateParamError(name string) error {
	return fmt.Errorf("freq: %s state parameter mismatch", name)
}

// checkStateShape validates the report count and vector length of a
// float-sum state (SHE, HRR); counting states are tally.Check's.
func checkStateShape(name string, n, gotLen, wantLen int) error {
	if n < 0 || gotLen != wantLen {
		return fmt.Errorf("freq: %s state has malformed sums", name)
	}
	return nil
}

// checkDomain validates a client input.
func checkDomain(v, d int) {
	if v < 0 || v >= d {
		panic(fmt.Sprintf("freq: value %d outside domain [0,%d)", v, d))
	}
}

// checkParams validates common constructor parameters.
func checkParams(epsilon float64, d int) {
	if epsilon <= 0 || math.IsNaN(epsilon) || math.IsInf(epsilon, 0) {
		panic(fmt.Sprintf("freq: epsilon must be positive and finite, got %v", epsilon))
	}
	if d < 2 {
		panic(fmt.Sprintf("freq: domain must have at least 2 values, got %d", d))
	}
}

// defaultSource returns src, or a fresh CSPRNG-backed source when nil.
// Production clients should leave src nil; tests inject deterministic
// sources.
func defaultSource(src ldprand.Source) ldprand.Source {
	if src == nil {
		return ldprand.NewCrypto()
	}
	return src
}

// Config carries the parameters shared by all oracle constructors, so
// experiment code can build any mechanism uniformly.
type Config struct {
	Epsilon float64        // privacy budget per report
	Domain  int            // input domain size d
	Source  ldprand.Source // randomness; nil means crypto/rand
}

// Builder constructs an Oracle from a Config.
type Builder func(Config) Oracle

// Mechanisms returns the canonical mechanism set compared in E2/E3, in
// presentation order.
func Mechanisms() []struct {
	Name  string
	Build Builder
} {
	return []struct {
		Name  string
		Build Builder
	}{
		{"GRR", func(c Config) Oracle { return NewGRR(c.Epsilon, c.Domain, c.Source) }},
		{"SUE", func(c Config) Oracle { return NewSUE(c.Epsilon, c.Domain, c.Source) }},
		{"OUE", func(c Config) Oracle { return NewOUE(c.Epsilon, c.Domain, c.Source) }},
		{"SHE", func(c Config) Oracle { return NewSHE(c.Epsilon, c.Domain, c.Source) }},
		{"THE", func(c Config) Oracle { return NewTHE(c.Epsilon, c.Domain, c.Source) }},
		{"BLH", func(c Config) Oracle { return NewBLH(c.Epsilon, c.Domain, c.Source) }},
		{"OLH", func(c Config) Oracle { return NewOLH(c.Epsilon, c.Domain, c.Source) }},
		{"HRR", func(c Config) Oracle { return NewHRR(c.Epsilon, c.Domain, c.Source) }},
		{"SS", func(c Config) Oracle { return NewSS(c.Epsilon, c.Domain, c.Source) }},
	}
}

// EstimateFrequencies normalizes estimated counts by n into frequency
// estimates (which may be slightly negative or above 1 due to noise).
func EstimateFrequencies(counts []float64, n int) []float64 {
	out := make([]float64, len(counts))
	if n == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = c / float64(n)
	}
	return out
}

// ClampToSimplex projects frequency estimates onto [0,1] and rescales to
// sum to 1, a standard post-processing step (post-processing preserves
// DP).
func ClampToSimplex(freqs []float64) []float64 {
	out := make([]float64, len(freqs))
	// Pre-scale by the largest positive entry so the normalizing sum
	// cannot overflow even for wildly out-of-range inputs.
	var maxPos float64
	for _, f := range freqs {
		if f > maxPos {
			maxPos = f
		}
	}
	if maxPos == 0 {
		maxPos = 1
	}
	var sum float64
	for i, f := range freqs {
		if f > 0 {
			out[i] = f / maxPos
			sum += out[i]
		}
	}
	if sum == 0 {
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
