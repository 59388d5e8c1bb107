// Package lockorder is the ldplint lockorder fixture: a miniature of
// the serving core's lock hierarchy with one ordering violation, one
// codec-under-shard-lock violation, the sanctioned shapes beside
// them, and a waived same-rank sweep.
package lockorder

import (
	"encoding/json"
	"sync"

	"repro/internal/task"
)

type coord struct {
	walMu   sync.RWMutex
	readMu  sync.Mutex
	phaseMu sync.Mutex
	shards  []*shard
}

// shard matches the analyzer's structural shard signature: a mutex
// beside a task.Aggregator.
type shard struct {
	mu  sync.Mutex
	agg task.Aggregator
}

// badOrder inverts the hierarchy: walMu is the outermost lock.
func (c *coord) badOrder() {
	c.phaseMu.Lock()
	c.walMu.Lock() // want `walMu acquired while phaseMu is held`
	c.walMu.Unlock()
	c.phaseMu.Unlock()
}

// goodOrder takes the same pair in hierarchy order.
func (c *coord) goodOrder() {
	c.walMu.Lock()
	c.phaseMu.Lock()
	c.phaseMu.Unlock()
	c.walMu.Unlock()
}

// goodCachedMerge is the read path's shape: the cache lock is held
// across the shard walk that refills the cache.
func (c *coord) goodCachedMerge() {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	c.phaseMu.Lock()
	defer c.phaseMu.Unlock()
	for _, s := range c.shards {
		s.mu.Lock()
		s.mu.Unlock()
	}
}

// badCacheUnderShard reaches for the read cache from inside a shard
// critical section.
func (c *coord) badCacheUnderShard() {
	s := c.shards[0]
	s.mu.Lock()
	c.readMu.Lock() // want `readMu acquired while shard mu is held; the lock order is flushMu < walMu < readMu < phaseMu < shard mu < outMu < relayMu`
	c.readMu.Unlock()
	s.mu.Unlock()
}

// decodeUnderLock performs codec work inside a shard critical
// section — the pattern the task.Preparer split exists to prevent.
func (s *shard) decodeUnderLock(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var v map[string]int
	return json.Unmarshal(data, &v) // want `JSON codec or file I/O inside a shard-lock critical section`
}

// decodeOutsideLock is the sanctioned shape: decode first, fold under
// the lock.
func (s *shard) decodeOutsideLock(data []byte) error {
	var v map[string]int
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = v
	return nil
}

// decodeViaHelper reaches the codec through a same-package call; the
// summary fixpoint carries the violation to the lock site.
func (s *shard) decodeViaHelper(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return decode(data) // want `call to decode performs JSON codec work or file I/O inside a shard-lock critical section`
}

func decode(data []byte) error {
	var v map[string]int
	return json.Unmarshal(data, &v)
}

// relay matches the relay tier's lock shape: flushMu brackets whole
// flush cycles, relayMu and outMu are leaves.
type relay struct {
	flushMu sync.Mutex
	relayMu sync.Mutex
	outMu   sync.Mutex
	c       *coord
}

// goodFlushCycle is the sanctioned relay shape: flushMu outermost,
// the cut under walMu, then the leaf locks with the core released.
func (r *relay) goodFlushCycle() {
	r.flushMu.Lock()
	r.c.walMu.Lock()
	r.c.walMu.Unlock()
	r.outMu.Lock()
	r.outMu.Unlock()
	r.relayMu.Lock()
	r.relayMu.Unlock()
	r.flushMu.Unlock()
}

// badFlushUnderWal inverts the bracket: a flush cycle started while a
// collection WAL lock is held deadlocks against the cut.
func (r *relay) badFlushUnderWal() {
	r.c.walMu.Lock()
	r.flushMu.Lock() // want `flushMu acquired while walMu is held`
	r.flushMu.Unlock()
	r.c.walMu.Unlock()
}

// badCoreUnderLeaf acquires a core lock under the relayMu leaf.
func (r *relay) badCoreUnderLeaf() {
	r.relayMu.Lock()
	r.c.phaseMu.Lock() // want `phaseMu acquired while relayMu is held`
	r.c.phaseMu.Unlock()
	r.relayMu.Unlock()
}

// sweepUnwaived holds every shard lock at once; the second loop
// iteration acquires a shard mutex with one already held.
func (c *coord) sweepUnwaived() {
	for _, s := range c.shards {
		s.mu.Lock() // want `shard mu acquired while shard mu is held`
	}
	for _, s := range c.shards {
		s.mu.Unlock()
	}
}

// sweepWaived is the same sweep with the annotation the real round
// advance carries: same-rank, one canonical acquisition order.
func (c *coord) sweepWaived() {
	for _, s := range c.shards {
		s.mu.Lock() //ldplint:ok lockorder all-shard sweep in canonical index order
	}
	for _, s := range c.shards {
		s.mu.Unlock()
	}
}
