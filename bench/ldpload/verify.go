package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"sort"

	"repro/internal/core"
	"repro/internal/task"
)

// referenceFold computes, in-process and with no sharding, journal or
// HTTP, the state the server must hold after acknowledging corpus
// batch b exactly counts[b] times.
//
// Each distinct corpus batch is folded sequentially, report by report,
// through the task's own Add path; the repetition count is applied
// afterwards with the task's exact Merge (binary doubling), because the
// closed loop acknowledges millions of reports and folding each
// repetition again would cost more than the measured run. Batches are
// grouped by count, so any multiset — including one with a dropped or
// doubled batch — is represented exactly.
func referenceFold(w *workload, corp *corpus, counts []int64) (task.Aggregator, error) {
	groups := make(map[int64][]int)
	for b, c := range counts {
		if c > 0 {
			groups[c] = append(groups[c], b)
		}
	}
	keys := make([]int64, 0, len(groups))
	for c := range groups {
		keys = append(keys, c)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	total, err := task.New(w.cfg.Config)
	if err != nil {
		return nil, err
	}
	for _, c := range keys {
		once, err := task.New(w.cfg.Config)
		if err != nil {
			return nil, err
		}
		for _, b := range groups[c] {
			for i, r := range corp.reports[b] {
				if err := addReport(once, r, w.binary); err != nil {
					return nil, fmt.Errorf("reference fold: batch %d report %d: %w", b, i, err)
				}
			}
		}
		// total += c × once, by doubling: Merge may keep references
		// into its argument, so every operand is a snapshot.
		for n := c; n > 0; n >>= 1 {
			if n&1 == 1 {
				if err := total.Merge(once.Snapshot()); err != nil {
					return nil, err
				}
			}
			if err := once.Merge(once.Snapshot()); err != nil {
				return nil, err
			}
		}
	}
	return total, nil
}

// addReport folds one wire envelope the way the sequential reference
// path does: Add for JSON, decode-then-fold for the binary wire.
func addReport(a task.Aggregator, report []byte, binary bool) error {
	if !binary {
		return a.Add(report)
	}
	prepared, err := a.(task.BinaryReporter).PrepareBinary(report)
	if err != nil {
		return err
	}
	return a.(task.Preparer).Fold(prepared)
}

// expectedEstimate renders the /estimate body a server with the
// reference state would serve, byte for byte (the encoder and the
// field order are core.EstimateResponse's own).
func expectedEstimate(w *workload, ref task.Aggregator, shards int) ([]byte, error) {
	q, err := url.ParseQuery(w.estimateQuery())
	if err != nil {
		return nil, err
	}
	est, err := ref.Estimate(q)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(core.EstimateResponse{
		Collection: collectionName,
		Task:       w.cfg.Type(),
		Mechanism:  w.cfg.Mechanism,
		Epsilon:    w.cfg.Epsilon,
		Shards:     shards,
		Reports:    ref.Collected(),
		Estimate:   est,
	})
	return buf.Bytes(), err
}

// estimateTolerance is the absolute error compareEstimate allows the
// numbers of a served estimate holding the given report count; 0 means
// the body must equal the reference byte for byte. Frequency oracles
// accumulate integer counts, so any fold order gives the same bits. The
// CMS sketch accumulates non-dyadic float64 weights (k·(c_ε/2·v+1/2)),
// so its cells depend on the order shards, deltas and replays summed
// them in: there the report count must match exactly and every number
// in the estimate to within float reassociation error.
func (w *workload) estimateTolerance(reports int) float64 {
	if w.cfg.Type() != task.TypeSketch {
		return 0
	}
	return max(1e-6, 1e-9*float64(reports))
}

// compareEstimate checks a served /estimate body against the expected
// one. With tol == 0 the bodies must be byte-identical; otherwise they
// must be the same JSON with every number within tol (absolute) —
// integers, the report count among them, still exactly.
func compareEstimate(got, want []byte, tol float64) error {
	if bytes.Equal(got, want) {
		return nil
	}
	if tol == 0 {
		return fmt.Errorf("served estimate differs from the reference fold:\n got  %s\n want %s", clip(got), clip(want))
	}
	var g, x any
	if err := json.Unmarshal(got, &g); err != nil {
		return fmt.Errorf("served estimate is not JSON: %v: %s", err, clip(got))
	}
	if err := json.Unmarshal(want, &x); err != nil {
		return err
	}
	if err := sameJSON(g, x, tol, "$"); err != nil {
		return fmt.Errorf("served estimate differs from the reference fold beyond float reassociation: %v", err)
	}
	return nil
}

func sameJSON(got, want any, tol float64, path string) error {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok || len(g) != len(w) {
			return fmt.Errorf("%s: shape differs", path)
		}
		for k, wv := range w {
			gv, ok := g[k]
			if !ok {
				return fmt.Errorf("%s.%s: missing", path, k)
			}
			if err := sameJSON(gv, wv, tol, path+"."+k); err != nil {
				return err
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return fmt.Errorf("%s: shape differs", path)
		}
		for i := range w {
			if err := sameJSON(g[i], w[i], tol, fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
	case float64:
		g, ok := got.(float64)
		if !ok {
			return fmt.Errorf("%s: shape differs", path)
		}
		allowed := tol
		if w == math.Trunc(w) {
			allowed = 0 // counts and parameters are exact
		}
		if math.Abs(g-w) > allowed {
			return fmt.Errorf("%s: got %v, want %v", path, g, w)
		}
	default:
		if got != want {
			return fmt.Errorf("%s: got %v, want %v", path, got, want)
		}
	}
	return nil
}

func clip(b []byte) string {
	if len(b) > 600 {
		return string(b[:600]) + "…"
	}
	return string(b)
}
