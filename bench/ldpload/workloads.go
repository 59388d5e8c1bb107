package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/internal/binenc"
	"repro/internal/core"
	"repro/internal/ldprand"
	"repro/internal/task"
	"repro/internal/task/cmstask"
)

// collectionName is the collection every workload creates and drives.
const collectionName = "bench"

// workload is one permanent, named traffic mix. Every number here is
// frozen by the benchmark — identical on every commit — so two commits
// measured with it did the same work. In particular openRate is a
// constant re-measured only when the benchmark itself is re-baselined,
// never derived from the current run: an open loop whose rate follows
// the system under test is a closed loop again.
type workload struct {
	name string
	why  string // one line, mirrored in BENCHMARK.json

	cfg    core.CollectionConfig
	binary bool // application/x-ldp-binary wire, else JSON

	batch  int // reports per batch
	corpus int // distinct batches privatized from the seed, cycled in order

	openRate float64       // open-loop batches/s (~30% of the closed-loop rate at the defining commit)
	ckpt     time.Duration // -checkpoint-interval of the measured phases
	tail     int           // batches posted with checkpoints off before SIGKILL

	reader bool // one connection reads /estimate open-loop at readRate
	relay  bool // relay -> aggregator; one connection polls upstream /status

	traceBatches int // batches per in-process traced pass
}

const (
	readRate = 20.0  // /estimate reads per second (sketch_read_write)
	pollRate = 100.0 // upstream /status polls per second (relay_sketch)
)

var sketchCfg = core.CollectionConfig{Config: task.Config{
	Task: task.TypeSketch, Mechanism: cmstask.MechanismCMS, Epsilon: 2, Width: 1024, Hashes: 128,
}}

var workloads = []workload{
	{
		name:  "grr_small_batch",
		why:   "freq GRR d=64, JSON, 20 reports/batch, open loop 1000 batches/s: per-batch cost (HTTP, JSON, dedup, one fsync per 20 reports) dominates, fold is O(1); group commit shows here",
		cfg:   core.FreqCollectionConfig(core.MechanismGRR, core.PrivacyParams{Epsilon: 2, Domain: 64}, 0),
		batch: 20, corpus: 2000, openRate: 1000, ckpt: 2 * time.Second, tail: 5000,
		traceBatches: 400,
	},
	{
		name:   "olh_large_batch",
		why:    "freq OLH d=1024, binary, 500 reports/batch, open loop 90 batches/s: O(d) fold per report dominates, one fsync per 500 reports; journal work is bypassed, group commit predicts no change",
		cfg:    core.FreqCollectionConfig(core.MechanismOLH, core.PrivacyParams{Epsilon: 2, Domain: 1024}, 0),
		binary: true,
		batch:  500, corpus: 60, openRate: 90, ckpt: 2 * time.Second, tail: 160,
		traceBatches: 80,
	},
	{
		name:   "sketch_read_write",
		why:    "sketch CMS 1024x128, binary, 100 reports/batch, open loop 150 batches/s, writers beside a 20/s /estimate reader on ~1 MB state: cold merge-on-read, large checkpoints in each phase",
		cfg:    sketchCfg,
		binary: true,
		batch:  100, corpus: 100, openRate: 150, ckpt: time.Second, tail: 300,
		reader:       true,
		traceBatches: 100,
	},
	{
		name:   "relay_sketch",
		why:    "sketch_read_write's config and corpus through ldpd -mode relay -> aggregator, open loop 150 batches/s: the only workload where cluster (cut, outbox, /merge) works; relay cost is the row difference",
		cfg:    sketchCfg,
		binary: true,
		batch:  100, corpus: 100, openRate: 150, ckpt: 2 * time.Second, tail: 300,
		relay:        true,
		traceBatches: 100,
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// writers is the number of writer connections: every CPU for the
// write-only workloads, one fewer (at least one) where a reader or a
// poller takes a connection, so the harness never opens more
// connections than the machine has CPUs.
func (w *workload) writers(nproc int) int {
	if w.reader || w.relay {
		return max(1, nproc-1)
	}
	return nproc
}

func (w *workload) contentType() string {
	if w.binary {
		return core.ContentTypeBinary
	}
	return "application/json"
}

// estimateQuery is the analyst query the reader issues and the
// verification compares: three items for a sketch (it has no domain to
// enumerate), the full histogram for a frequency collection.
func (w *workload) estimateQuery() string {
	if w.cfg.Type() == task.TypeSketch {
		return "item=item0&item=item1&item=item2"
	}
	return ""
}

// corpus is a workload's privatized input: reports[b][i] is one wire
// envelope, bodies[b] the ready /report/batch request body of batch b.
type corpus struct {
	reports   [][][]byte
	bodies    [][]byte
	privatize time.Duration // time spent in the repo's client code
	wireBytes int
}

func (c *corpus) reportCount() int { return len(c.reports) * len(c.reports[0]) }

// buildCorpus privatizes the workload's corpus from the seed with the
// repo's own clients. Values are skewed (square of a uniform draw) so
// the estimates have heavy and light cells like a real survey; the
// same seed yields the same bytes.
func buildCorpus(w *workload, seed uint64) (*corpus, error) {
	values := ldprand.NewSplitMix64(seed)
	noise := ldprand.NewSplitMix64(seed ^ 0x6c64706c6f6164) // "ldpload"
	skewed := func(n int) int {
		u := ldprand.Float64(values)
		return int(u * u * float64(n))
	}
	var report func() ([]byte, error)
	if w.cfg.Type() == task.TypeSketch {
		cl, err := cmstask.NewClient(w.cfg.Config, noise)
		if err != nil {
			return nil, err
		}
		report = func() ([]byte, error) {
			item := []byte("item" + strconv.Itoa(skewed(1000)))
			if w.binary {
				return cl.ReportBinary(item)
			}
			return cl.Report(item)
		}
	} else {
		cl, err := core.NewClient(w.cfg.Mechanism, w.cfg.Params(), noise)
		if err != nil {
			return nil, err
		}
		report = func() ([]byte, error) {
			v := skewed(w.cfg.Domain)
			if w.binary {
				return cl.ReportBinary(v)
			}
			env, err := cl.Report(v)
			if err != nil {
				return nil, err
			}
			return json.Marshal(env)
		}
	}
	c := &corpus{reports: make([][][]byte, w.corpus), bodies: make([][]byte, w.corpus)}
	for b := range c.reports {
		batch := make([][]byte, w.batch)
		start := time.Now()
		for i := range batch {
			r, err := report()
			if err != nil {
				return nil, fmt.Errorf("privatizing %s corpus: %w", w.name, err)
			}
			batch[i] = r
		}
		c.privatize += time.Since(start)
		c.reports[b] = batch
		c.bodies[b] = encodeBatch(batch, w.binary)
		c.wireBytes += len(c.bodies[b])
	}
	return c, nil
}

// encodeBatch frames envelopes into one /report/batch body: a JSON
// array, or the binary uvarint count plus length-prefixed envelopes.
func encodeBatch(batch [][]byte, binary bool) []byte {
	if binary {
		w := binenc.NewWriter()
		defer w.Release()
		w.Uvarint(uint64(len(batch)))
		for _, env := range batch {
			w.Blob(env)
		}
		return append([]byte(nil), w.Bytes()...)
	}
	body := []byte{'['}
	for i, env := range batch {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, env...)
	}
	return append(body, ']')
}
