package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// metric is one reported number. N is the sample count behind a
// percentile or a median (0 for a single measurement or a ratio of
// totals).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is everything one workload run reports.
type result struct {
	Workload  string
	Trace     bool
	Metrics   map[string]metric // the set BENCHMARK.json declares for this mode
	Info      map[string]metric // printed and stored, never gated
	Attempted int64
	Failed    int64
	Correct   bool
	Valid     bool // the open loop kept its schedule
	Notes     []string
	Phases    map[string]float64 // seconds
	OpenRate  float64
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// runOpts are the per-invocation knobs; everything else about a run is
// frozen in the workload table.
type runOpts struct {
	seed    uint64
	seconds float64 // measured time: half closed loop, half open loop
	smoke   bool
	nproc   int
}

// phase plan, identical on every commit for a given -seconds.
type plan struct {
	warm, closed, open time.Duration
	setups             int // set-up repetitions; setup_s is their median
	recoveries         int // SIGKILL/restart repetitions over the same journal tail; recover_s is their median
	tail               int
}

func (o runOpts) plan(w *workload) plan {
	half := time.Duration(o.seconds / 2 * float64(time.Second))
	p := plan{warm: time.Second, closed: half, open: half, setups: 5, recoveries: 3, tail: w.tail}
	if o.smoke {
		p.warm, p.setups, p.recoveries, p.tail = 200*time.Millisecond, 1, 1, 20
	}
	return p
}

// topology is the set of ldpd processes of one workload: an
// aggregator, and for relay_sketch a relay in front of it.
type topology struct {
	agg, relay       *server
	aggDir, relayDir string
}

func (t *topology) servers() []*server {
	if t.relay != nil {
		return []*server{t.agg, t.relay}
	}
	return []*server{t.agg}
}

// ingest is the base URL writers post to (and collections are created
// through): the relay when there is one.
func (t *topology) ingest() string {
	if t.relay != nil {
		return t.relay.url
	}
	return t.agg.url
}

// boot starts the topology's processes over its state dirs and returns
// the time from the first exec to the last 200 on /healthz. The
// aggregator is healthy before the relay starts: a relay mirrors its
// upstream's collections at boot.
func (t *topology) boot(h *harness, w *workload, ckpt, flush time.Duration) (time.Duration, error) {
	var err error
	var d1, d2 time.Duration
	t.agg, d1, err = h.start("-state-dir", t.aggDir, "-journal-sync", core.JournalSyncEvery,
		"-checkpoint-interval", ckpt.String())
	if err != nil {
		return 0, err
	}
	if w.relay {
		t.relay, d2, err = h.start("-mode", "relay", "-upstream", t.agg.url, "-state-dir", t.relayDir,
			"-journal-sync", core.JournalSyncEvery, "-checkpoint-interval", ckpt.String(),
			"-flush-interval", flush.String())
		if err != nil {
			return 0, err
		}
	}
	return d1 + d2, nil
}

// stop ends every process with the signal, the relay first so a
// graceful relay can still deliver its final flush.
func (t *topology) stop(sig syscall.Signal) error {
	if t.relay != nil {
		if err := t.relay.stop(sig); err != nil {
			return err
		}
	}
	return t.agg.stop(sig)
}

const (
	relayFlush = time.Second
	noFlush    = time.Hour // tail and recovery: the journal tail must not depend on flush timing
)

// setup is the timed set-up of one workload: privatize the corpus from
// the seed, boot the processes, create the collection.
func setup(h *harness, client *http.Client, w *workload, seed uint64) (*topology, *corpus, time.Duration, error) {
	begin := time.Now()
	corp, err := buildCorpus(w, seed)
	if err != nil {
		return nil, nil, 0, err
	}
	t := &topology{}
	if t.aggDir, err = h.stateDir("agg"); err != nil {
		return nil, nil, 0, err
	}
	if w.relay {
		if t.relayDir, err = h.stateDir("relay"); err != nil {
			return nil, nil, 0, err
		}
	}
	if _, err := t.boot(h, w, w.ckpt, relayFlush); err != nil {
		return nil, nil, 0, err
	}
	body, err := json.Marshal(core.CreateCollectionRequest{Name: collectionName, CollectionConfig: w.cfg})
	if err != nil {
		return nil, nil, 0, err
	}
	resp, err := client.Post(t.ingest()+"/collections", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, 0, err
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return nil, nil, 0, fmt.Errorf("creating collection: %s: %s", resp.Status, msg)
	}
	return t, corp, time.Since(begin), nil
}

// getJSON fetches url and decodes a 200 body into out, returning the
// raw body too.
func getJSON(client *http.Client, url string, out any) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, clip(body))
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return nil, fmt.Errorf("GET %s: %v", url, err)
		}
	}
	return body, nil
}

// cpuSum adds up the servers' user and system CPU time.
func cpuSum(servers []*server) (user, sys time.Duration, err error) {
	for _, s := range servers {
		u, k, err := cpuTime(s.pid)
		if err != nil {
			return 0, 0, err
		}
		user, sys = user+u, sys+k
	}
	return user, sys, nil
}

// runWorkload drives one workload through its phases against real
// ldpd processes and returns its end-to-end metrics.
func runWorkload(h *harness, w *workload, o runOpts) (*result, error) {
	p := o.plan(w)
	res := &result{
		Workload: w.name,
		Metrics:  make(map[string]metric),
		Info:     make(map[string]metric),
		Valid:    true,
		OpenRate: w.openRate,
		Phases:   map[string]float64{"warmup": p.warm.Seconds(), "closed": p.closed.Seconds(), "open": p.open.Seconds()},
	}
	writers := w.writers(o.nproc)
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: o.nproc + 2, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	defer client.CloseIdleConnections()

	// --- setup, repeated; the last one is the run's topology ---------
	var topo *topology
	var corp *corpus
	setups := make([]float64, 0, p.setups)
	for i := 0; i < p.setups; i++ {
		if topo != nil {
			if err := topo.stop(syscall.SIGKILL); err != nil {
				return nil, err
			}
		}
		t, c, d, err := setup(h, client, w, o.seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		topo, corp = t, c
		setups = append(setups, d.Seconds())
	}
	res.Metrics["setup_s"] = metric{Value: median(setups), Unit: "s", N: len(setups)}

	var tl tally
	ld := newLoader(client, topo.ingest(), w, corp, &tl)
	post := func() { ld.post() }
	// The aggregator's read endpoints, wherever it currently listens
	// (every restart takes a new port).
	statusURL := func() string { return topo.agg.url + "/collections/" + collectionName + "/status" }
	estimateURL := func() string {
		return topo.agg.url + "/collections/" + collectionName + "/estimate?" + w.estimateQuery()
	}

	// --- side connection: the reader or the upstream poller ----------
	var side sync.WaitGroup
	var readLatency []time.Duration
	var polls []poll
	sideFor := p.warm + p.closed + p.open
	switch {
	case w.reader:
		side.Add(1)
		go func() {
			defer side.Done()
			readLatency, _ = openLoop(readRate, sideFor, 1, func() {
				tl.attempted.Add(1)
				if _, err := getJSON(client, estimateURL(), nil); err != nil {
					tl.failed.Add(1)
				}
			})
		}()
	case w.relay:
		side.Add(1)
		go func() {
			defer side.Done()
			// Keep polling past the last ack for one flush interval
			// and a bit, so the final batches' freshness is observed.
			openLoop(pollRate, sideFor+relayFlush+relayFlush/2, 1, func() {
				var st core.StatusResponse
				tl.attempted.Add(1)
				if _, err := getJSON(client, statusURL(), &st); err != nil {
					tl.failed.Add(1)
					return
				}
				polls = append(polls, poll{at: time.Since(ld.epoch), reports: st.Reports})
			})
		}()
	}

	// --- warm-up, untimed ---------------------------------------------
	closedLoop(p.warm, 0, writers, post)

	// --- closed loop ---------------------------------------------------
	selfU0, selfS0, err := cpuTime(os.Getpid())
	if err != nil {
		return nil, err
	}
	u0, s0, err := cpuSum(topo.servers())
	if err != nil {
		return nil, err
	}
	closedStart := time.Since(ld.epoch)
	closedWall := closedLoop(p.closed, 0, writers, post)
	u1, s1, err := cpuSum(topo.servers())
	if err != nil {
		return nil, err
	}
	closedEnd := closedStart + closedWall
	var at []time.Duration
	var weight []int
	closedReports := 0
	for _, a := range ld.acked() {
		if a.at >= closedStart && a.at < closedEnd {
			at = append(at, a.at-closedStart)
			weight = append(weight, a.reports)
			closedReports += a.reports
		}
	}
	if closedReports == 0 {
		return nil, fmt.Errorf("closed loop acknowledged nothing\n%s", topo.agg.logs)
	}
	rates := windowRates(at, weight, closedWall, 500*time.Millisecond)
	res.Metrics["ingest_reports_per_s"] = metric{Value: median(rates), Unit: "reports/s", N: len(rates)}
	res.Info["ingest.mean_reports_per_s"] = metric{Value: float64(closedReports) / closedWall.Seconds(), Unit: "reports/s"}
	cpu := (u1 - u0) + (s1 - s0)
	res.Metrics["cpu_us_per_report"] = metric{Value: float64(cpu.Microseconds()) / float64(closedReports), Unit: "us"}
	if cpu > 0 {
		res.Info["server.cpu_user_share"] = metric{Value: float64(u1-u0) / float64(cpu), Unit: "ratio"}
	}

	// --- open loop -----------------------------------------------------
	latency, late := openLoop(w.openRate, p.open, writers, post)
	selfU1, selfS1, err := cpuTime(os.Getpid())
	if err != nil {
		return nil, err
	}
	lat := millis(latency)
	perWindow := int(w.openRate) // slots are evenly spaced, so one second of schedule is this many
	res.Metrics["ack_p50_ms"] = metric{Value: median(windowPercentiles(latency, perWindow, 50)), Unit: "ms", N: len(lat)}
	// The tail is printed, not gated: p90 sits at the knee where a batch
	// does or does not collide with a checkpoint or a reader's merge, and
	// ranged 3.1-4.5 ms between identical runs (p99 and up, several-fold).
	res.Info["ack_p90_ms"] = metric{Value: median(windowPercentiles(latency, perWindow, 90)), Unit: "ms", N: len(lat)}
	res.Info["http.ack_p99_ms"] = metric{Value: percentile(lat, 99), Unit: "ms", N: len(lat)}
	res.Info["http.ack_p99.9_ms"] = metric{Value: percentile(lat, 99.9), Unit: "ms", N: len(lat)}
	res.Info["http.ack_max_ms"] = metric{Value: percentile(lat, 100), Unit: "ms", N: len(lat)}
	res.Info["loadgen.late_max_ms"] = metric{Value: percentile(millis(late), 100), Unit: "ms", N: len(late)}
	measured := closedWall + p.open
	res.Info["loadgen.cpu_share"] = metric{
		Value: float64((selfU1-selfU0)+(selfS1-selfS0)) / (float64(measured) * float64(o.nproc)), Unit: "ratio"}
	if latenessGrew(late) {
		res.Valid = false
		res.note("INVALID: the generator fell progressively behind the %.0f batches/s schedule; the open-loop figures measure the backlog, not the server", w.openRate)
	}

	var rss int64
	for _, s := range topo.servers() {
		b, err := peakRSS(s.pid)
		if err != nil {
			return nil, err
		}
		rss += b
	}
	res.Metrics["server_rss_peak_mb"] = metric{Value: float64(rss) / (1 << 20), Unit: "MB"}
	var st core.StatusResponse
	if _, err := getJSON(client, statusURL(), &st); err != nil {
		return nil, err
	}
	if st.CheckpointInfo != nil {
		res.Info["ckpt.bytes"] = metric{Value: float64(st.CheckpointInfo.Bytes), Unit: "B"}
	}

	side.Wait()
	if w.reader {
		rl := millis(readLatency)
		res.Info["estimate_p50_ms"] = metric{Value: percentile(rl, 50), Unit: "ms", N: len(rl)}
		res.Info["estimate.p90_ms"] = metric{Value: percentile(rl, 90), Unit: "ms", N: len(rl)}
	}
	if w.relay {
		acks := ld.acked()
		fr := millis(freshness(acks, polls))
		res.Info["freshness_p50_ms"] = metric{Value: percentile(fr, 50), Unit: "ms", N: len(fr)}
		if missed := len(acks) - len(fr); missed > 0 {
			res.note("%d of %d acknowledged batches were never seen upstream by the poller before it stopped", missed, len(acks))
		}
	}

	// --- graceful stop, restart without checkpoints, fixed tail -------
	if err := topo.stop(syscall.SIGTERM); err != nil {
		return nil, err
	}
	if _, err := topo.boot(h, w, 0, noFlush); err != nil {
		return nil, err
	}
	ld.target(topo.ingest())
	if w.relay {
		// A relay mirrors and flushes once, asynchronously, right after
		// it starts listening. Let that pass over the still-empty
		// collection, or a tail batch that beat it would be shipped
		// upstream and the journal tail would depend on the race.
		time.Sleep(200 * time.Millisecond)
	}
	closedLoop(0, int64(p.tail), writers, post)

	// --- SIGKILL, journal size, recovery time --------------------------
	if err := topo.stop(syscall.SIGKILL); err != nil {
		return nil, err
	}
	var wal int64
	for _, dir := range []string{topo.aggDir, topo.relayDir} {
		if dir == "" {
			continue
		}
		n, err := dirBytes(dir, ".journal.")
		if err != nil {
			return nil, err
		}
		wal += n
	}
	res.Metrics["wal_bytes_per_report"] = metric{Value: float64(wal) / float64(p.tail*w.batch), Unit: "B"}
	recovers := make([]float64, 0, p.recoveries)
	for i := 0; i < p.recoveries; i++ {
		if i > 0 {
			if err := topo.stop(syscall.SIGKILL); err != nil {
				return nil, err
			}
		}
		d, err := topo.boot(h, w, 0, noFlush)
		if err != nil {
			return nil, err
		}
		recovers = append(recovers, d.Seconds())
	}
	res.Metrics["recover_s"] = metric{Value: median(recovers), Unit: "s", N: len(recovers)}
	res.note("SIGKILL checks process-crash durability only (the page cache survives); power-loss behaviour is covered by the fsio crash sweeps in internal/core")

	// --- verify ---------------------------------------------------------
	if w.relay {
		resp, err := client.Post(topo.relay.url+"/flush", "application/json", nil)
		if err != nil {
			return nil, err
		}
		var fr cluster.FlushResponse
		err = json.NewDecoder(resp.Body).Decode(&fr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || fr.Pending != 0 || fr.Stranded != 0 {
			return nil, fmt.Errorf("final relay flush: %s %+v %v\n%s", resp.Status, fr, err, topo.relay.logs)
		}
	}
	if _, err := getJSON(client, statusURL(), &st); err != nil {
		return nil, err
	}
	served, err := getJSON(client, estimateURL(), nil)
	if err != nil {
		return nil, err
	}
	counts := ld.ackCounts()
	ref, err := referenceFold(w, corp, counts)
	if err != nil {
		return nil, err
	}
	want, err := expectedEstimate(w, ref, st.Shards)
	if err != nil {
		return nil, err
	}
	tol := w.estimateTolerance(ref.Collected())
	tl.attempted.Add(2)
	if st.Reports != ref.Collected() {
		tl.failed.Add(1)
		res.note("VERIFY FAILED: /status reports %d, acknowledged %d", st.Reports, ref.Collected())
	}
	if err := compareEstimate(served, want, tol); err != nil {
		tl.failed.Add(1)
		res.note("VERIFY FAILED: %v", err)
	} else if tol == 0 {
		res.note("verified: served /estimate is byte-identical to the sequential reference fold of the %d acknowledged reports", ref.Collected())
	} else {
		res.note("verified: served /estimate matches the sequential reference fold of the %d acknowledged reports (count exact, floats within %.3g: CMS cells are order-dependent float64 sums)", ref.Collected(), tol)
	}

	if err := topo.stop(syscall.SIGTERM); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = tl.attempted.Load(), tl.failed.Load()
	res.Correct = res.Failed == 0
	res.Info["failed_ratio"] = metric{Value: float64(res.Failed) / float64(res.Attempted), Unit: "ratio", N: int(res.Attempted)}
	return res, nil
}
