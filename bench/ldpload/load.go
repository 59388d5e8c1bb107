package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// tally counts requests for failed_ratio: every request the harness
// issues in any phase is attempted; a transport error, an unexpected
// status or a short acceptance is failed.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
}

// ack is one acknowledged batch: when (since the loader's epoch) and
// how many reports it carried.
type ack struct {
	at      time.Duration
	reports int
}

// loader posts the corpus, cycled in a fixed order, to one
// /report/batch endpoint, with a fresh Idempotency-Key per batch. It
// records exactly which corpus batches were acknowledged how often —
// the verification folds that multiset and nothing else.
type loader struct {
	client      *http.Client
	url         string // current /report/batch endpoint; see target
	keyPrefix   string // run-unique, so restarts of the harness never replay a key
	contentType string
	corp        *corpus
	tally       *tally
	epoch       time.Time

	cursor atomic.Int64   // next position in the corpus cycle
	counts []atomic.Int64 // acknowledgements per corpus batch

	mu   sync.Mutex
	acks []ack
}

func newLoader(client *http.Client, base string, w *workload, corp *corpus, t *tally) *loader {
	l := &loader{
		client:      client,
		contentType: w.contentType(),
		corp:        corp,
		tally:       t,
		epoch:       time.Now(),
		counts:      make([]atomic.Int64, len(corp.bodies)),
	}
	l.keyPrefix = fmt.Sprintf("ldpload-%d-", l.epoch.UnixNano())
	l.target(base)
	return l
}

// target points the loader at a (re)started server. Not for use while
// a loop is running.
func (l *loader) target(base string) {
	l.url = base + "/collections/" + collectionName + "/report/batch"
}

// post sends the next batch of the cycle and reports whether the
// server acknowledged all of it.
func (l *loader) post() bool {
	seq := l.cursor.Add(1) - 1
	b := int(seq % int64(len(l.corp.bodies)))
	req, err := http.NewRequest(http.MethodPost, l.url, bytes.NewReader(l.corp.bodies[b]))
	if err != nil {
		panic(err) // constant method and a URL this process built
	}
	req.Header.Set("Content-Type", l.contentType)
	// Fixed width: the key is journaled, and wal_bytes_per_report
	// must not depend on how many batches ran before the tail.
	req.Header.Set("Idempotency-Key", fmt.Sprintf("%s%012d", l.keyPrefix, seq))
	l.tally.attempted.Add(1)
	resp, err := l.client.Do(req)
	if err != nil {
		l.tally.failed.Add(1)
		return false
	}
	var br core.BatchResponse
	err = json.NewDecoder(resp.Body).Decode(&br)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	want := len(l.corp.reports[b])
	if err != nil || resp.StatusCode != http.StatusAccepted || br.Accepted != want || br.Replayed {
		l.tally.failed.Add(1)
		return false
	}
	at := time.Since(l.epoch)
	l.counts[b].Add(1)
	l.mu.Lock()
	l.acks = append(l.acks, ack{at: at, reports: want})
	l.mu.Unlock()
	return true
}

// ackCounts snapshots the per-batch acknowledgement counts.
func (l *loader) ackCounts() []int64 {
	out := make([]int64, len(l.counts))
	for i := range l.counts {
		out[i] = l.counts[i].Load()
	}
	return out
}

// acked returns the acknowledgements logged so far, in time order.
func (l *loader) acked() []ack {
	l.mu.Lock()
	out := append([]ack(nil), l.acks...)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// closedLoop runs workers that each call send again as soon as the
// previous call returned, until the duration has passed or (when
// limit > 0) limit calls were made. It returns the wall time.
func closedLoop(dur time.Duration, limit int64, workers int, send func()) time.Duration {
	start := time.Now()
	var issued atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if limit > 0 && issued.Add(1) > limit {
					return
				}
				if limit <= 0 && time.Since(start) >= dur {
					return
				}
				send()
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// openLoop calls send on a fixed schedule — slot k is due at
// start + k/rate — from a bounded set of workers, for dur. Latency is
// timed from the instant the slot was due, not from when a worker got
// round to sending it: when the server stalls, the slots that queue up
// behind the stall are charged their wait, which a closed loop (and a
// send-time clock) silently omits. late is how long after its due time
// each slot was actually sent; both are in slot order.
func openLoop(rate float64, dur time.Duration, workers int, send func()) (latency, late []time.Duration) {
	slots := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	latency = make([]time.Duration, slots)
	late = make([]time.Duration, slots)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= slots {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				time.Sleep(time.Until(due))
				late[k] = time.Since(due)
				send()
				latency[k] = time.Since(due)
			}
		}()
	}
	wg.Wait()
	return latency, late
}

// latenessGrew reports whether the generator fell progressively behind
// its schedule: the second half of the phase ran later, on average, by
// more than the allowance. A run like that measured the backlog, not
// the server, and is reported invalid rather than slow.
func latenessGrew(late []time.Duration) bool {
	const allowance = 50 * time.Millisecond
	half := len(late) / 2
	if half == 0 {
		return false
	}
	mean := func(ds []time.Duration) time.Duration {
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		return sum / time.Duration(len(ds))
	}
	return mean(late[half:])-mean(late[:half]) > allowance
}

// poll is one upstream /status observation.
type poll struct {
	at      time.Duration
	reports int
}

// freshness returns, per acknowledged batch, how long after its ack the
// upstream first showed at least the cumulative acknowledged report
// count. Batches no poll ever covered are left out (and counted by the
// caller as the difference in lengths).
func freshness(acks []ack, polls []poll) []time.Duration {
	out := make([]time.Duration, 0, len(acks))
	cum, p := 0, 0
	for _, a := range acks {
		cum += a.reports
		for p < len(polls) && (polls[p].reports < cum || polls[p].at < a.at) {
			p++
		}
		if p == len(polls) {
			break
		}
		out = append(out, polls[p].at-a.at)
	}
	return out
}
