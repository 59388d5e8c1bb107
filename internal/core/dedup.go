package core

import (
	"container/list"
	"sync"
)

// maxDedupEntries bounds the per-collection batch-ID memory. Dedup
// exists to absorb client retries, which happen within seconds of the
// original attempt, so the window only needs to cover the most recent
// batches — 4096 IDs outlast any sane retry policy while keeping the
// snapshot overhead (one short string plus two ints per entry) small.
const maxDedupEntries = 4096

// BatchMark is the remembered outcome of one idempotent batch: what
// the server answered when it first accepted the ID. It is persisted
// (in journal frames and snapshot envelopes) so a retry after a
// restart still deduplicates.
type BatchMark struct {
	ID       string `json:"id"`
	Accepted int    `json:"accepted"`
	Rejected int    `json:"rejected"`
}

// dedupState classifies a claim on a batch ID.
type dedupState int

const (
	dedupNew      dedupState = iota // ID unseen: the caller owns processing it
	dedupInflight                   // another request is processing it right now
	dedupDone                       // processed: the recorded mark answers the retry
)

// dedupLRU is a bounded most-recently-used memory of batch IDs. A
// claim inserts an in-flight placeholder, so two concurrent requests
// with one ID can never both aggregate it: the loser is told to retry
// (by which time the winner has completed or abandoned). Entries are
// evicted oldest-first past the cap. It locks itself — mu is a leaf:
// nothing is called, let alone locked, while it is held — so it is
// safe to use under any of the collection's ranked locks.
type dedupLRU struct {
	mu sync.Mutex
	m  map[string]*list.Element
	l  *list.List // front = most recent
}

type dedupEntry struct {
	mark BatchMark
	done bool
}

func newDedupLRU() *dedupLRU {
	return &dedupLRU{m: make(map[string]*list.Element), l: list.New()}
}

// claim looks the ID up, inserting an in-flight placeholder when it is
// new. dedupDone comes with the recorded mark.
func (d *dedupLRU) claim(id string) (BatchMark, dedupState) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.m[id]; ok {
		d.l.MoveToFront(e)
		ent := e.Value.(*dedupEntry)
		if !ent.done {
			return BatchMark{}, dedupInflight
		}
		return ent.mark, dedupDone
	}
	d.insert(&dedupEntry{mark: BatchMark{ID: id}})
	return BatchMark{}, dedupNew
}

// complete records the outcome of a claimed ID (or re-records a
// replayed one).
func (d *dedupLRU) complete(m BatchMark) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.m[m.ID]; ok {
		d.l.MoveToFront(e)
		*e.Value.(*dedupEntry) = dedupEntry{mark: m, done: true}
		return
	}
	d.insert(&dedupEntry{mark: m, done: true})
}

// abandon forgets a claimed ID whose processing failed before anything
// was aggregated, so the client's retry is treated as new.
func (d *dedupLRU) abandon(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.m[id]; ok {
		d.l.Remove(e)
		delete(d.m, id)
	}
}

// insert adds an entry and evicts past the cap; the caller holds mu.
func (d *dedupLRU) insert(ent *dedupEntry) {
	d.m[ent.mark.ID] = d.l.PushFront(ent)
	for d.l.Len() > maxDedupEntries {
		oldest := d.l.Back()
		d.l.Remove(oldest)
		delete(d.m, oldest.Value.(*dedupEntry).mark.ID)
	}
}

// marks returns the completed entries oldest-first, the order seed
// re-inserts them in so recency survives a snapshot round trip.
func (d *dedupLRU) marks() []BatchMark {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]BatchMark, 0, d.l.Len())
	for e := d.l.Back(); e != nil; e = e.Prev() {
		if ent := e.Value.(*dedupEntry); ent.done {
			out = append(out, ent.mark)
		}
	}
	return out
}

// seed restores completed entries from a snapshot, oldest-first.
func (d *dedupLRU) seed(ms []BatchMark) {
	for _, m := range ms {
		d.complete(m)
	}
}
