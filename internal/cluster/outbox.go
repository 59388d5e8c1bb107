package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/fsio"
)

// Outbox is the relay's durable send queue: every delta cut from a
// collection lands here as one file BEFORE anything is acknowledged to
// the flusher, and leaves only when the upstream has folded it (or the
// operator is handed it as .stranded). Files are named by a monotonic
// sequence number and sent in that order, so a phased collection's
// deltas reach the upstream in the order they were cut; the delta's
// own header (collection, idempotency key, round) travels inside the
// self-checking binary container, keeping filenames trivial.
//
// Writes are crash-atomic (fsio.WriteFileAtomic, the checkpoint
// store's recipe), and a boot-time scan resumes
// whatever a crash left behind: *.delta files re-enter the queue,
// temp strays are deleted, .stranded files are only counted.
type Outbox struct {
	fs  fsio.FS
	dir string

	// outMu guards the queue, counters and sequence. It is a leaf
	// below nothing: Put/Remove run after the collection's WAL lock is
	// released, never inside it.
	outMu    sync.Mutex
	seq      uint64
	queue    []Entry
	pending  map[string]int // collection -> queued delta count
	stranded map[string]int // collection -> stranded delta count
}

// Entry is one queued delta.
type Entry struct {
	Seq        uint64
	Path       string
	Collection string
	ID         string
}

const (
	deltaSuffix    = ".delta"
	strandedSuffix = ".stranded"
)

// NewOutbox opens (creating if needed) the outbox directory and scans
// it: queued deltas are re-read to recover their collection and key,
// corrupt ones are stranded, temp strays from a torn write are
// removed.
func NewOutbox(fsys fsio.FS, dir string) (*Outbox, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: outbox dir: %w", err)
	}
	o := &Outbox{
		fs:       fsys,
		dir:      dir,
		pending:  make(map[string]int),
		stranded: make(map[string]int),
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cluster: outbox scan: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		path := filepath.Join(dir, name)
		switch {
		case strings.HasPrefix(name, ".tmp-"):
			_ = fsys.Remove(path) //ldplint:ok fsiocheck torn temp file; its delta was never acknowledged
		case strings.HasSuffix(name, strandedSuffix):
			o.stranded[strandedOwner(fsys, path)]++
		case strings.HasSuffix(name, deltaSuffix):
			seq, err := strconv.ParseUint(strings.TrimSuffix(name, deltaSuffix), 16, 64)
			if err != nil {
				continue // foreign file; not ours to interpret
			}
			if seq >= o.seq {
				o.seq = seq + 1
			}
			d, err := o.load(path)
			if err != nil {
				// The container failed its checksum: preserve the bytes
				// for the operator; the journal's flush frame replay
				// will have regenerated the delta if it was real.
				_ = fsys.Rename(path, path+strandedSuffix) //ldplint:ok fsiocheck corrupt file is counted either way; next boot retries the rename
				o.stranded[""]++
				continue
			}
			o.queue = append(o.queue, Entry{Seq: seq, Path: path, Collection: d.Collection, ID: d.ID})
			o.pending[d.Collection]++
		}
	}
	sort.Slice(o.queue, func(i, j int) bool { return o.queue[i].Seq < o.queue[j].Seq })
	return o, nil
}

// strandedOwner best-effort recovers which collection a stranded file
// belonged to (for per-collection counters); unreadable files count
// under "".
func strandedOwner(fsys fsio.FS, path string) string {
	blob, err := fsys.ReadFile(path)
	if err != nil {
		return ""
	}
	d, err := core.DecodeDeltaBinary(blob)
	if err != nil {
		return ""
	}
	return d.Collection
}

func (o *Outbox) load(path string) (core.Delta, error) {
	blob, err := o.fs.ReadFile(path)
	if err != nil {
		return core.Delta{}, err
	}
	return core.DecodeDeltaBinary(blob)
}

// Put persists one delta and queues it for sending. The file is
// durable (fsynced, atomically named) before Put returns. Re-putting
// a delta whose idempotency key is already queued for the same
// collection is a no-op — journal replay re-emits cut deltas whose
// outbox file may have survived the crash.
func (o *Outbox) Put(d core.Delta) error {
	blob, err := core.EncodeDeltaBinary(d)
	if err != nil {
		return err
	}
	o.outMu.Lock()
	defer o.outMu.Unlock()
	for _, e := range o.queue {
		if e.Collection == d.Collection && e.ID == d.ID && d.ID != "" {
			return nil
		}
	}
	seq := o.seq
	o.seq++
	path := filepath.Join(o.dir, fmt.Sprintf("%016x%s", seq, deltaSuffix))
	if err := fsio.WriteFileAtomic(o.fs, path, ".tmp-delta-*", blob); err != nil {
		return fmt.Errorf("cluster: outbox write: %w", err)
	}
	o.queue = append(o.queue, Entry{Seq: seq, Path: path, Collection: d.Collection, ID: d.ID})
	o.pending[d.Collection]++
	return nil
}

// Pending returns the queued entries in send order.
func (o *Outbox) Pending() []Entry {
	o.outMu.Lock()
	defer o.outMu.Unlock()
	out := make([]Entry, len(o.queue))
	copy(out, o.queue)
	return out
}

// Load reads and decodes one queued delta plus its encoded container
// bytes (what the sender posts verbatim).
func (o *Outbox) Load(e Entry) (core.Delta, []byte, error) {
	blob, err := o.fs.ReadFile(e.Path)
	if err != nil {
		return core.Delta{}, nil, err
	}
	d, err := core.DecodeDeltaBinary(blob)
	if err != nil {
		return core.Delta{}, nil, err
	}
	return d, blob, nil
}

// Remove deletes an acknowledged delta from disk and queue.
func (o *Outbox) Remove(e Entry) error {
	o.outMu.Lock()
	defer o.outMu.Unlock()
	if err := o.fs.Remove(e.Path); err != nil && !os.IsNotExist(err) {
		return err
	}
	o.drop(e)
	return nil
}

// Strand sets a permanently rejected delta aside: the file is renamed
// to .stranded (never deleted — it holds acknowledged reports the
// operator may still merge by hand) and counted in /status.
func (o *Outbox) Strand(e Entry) error {
	o.outMu.Lock()
	defer o.outMu.Unlock()
	if err := o.fs.Rename(e.Path, e.Path+strandedSuffix); err != nil && !os.IsNotExist(err) {
		return err
	}
	o.drop(e)
	o.stranded[e.Collection]++
	return nil
}

// drop removes e from the in-memory queue; the caller holds outMu.
func (o *Outbox) drop(e Entry) {
	for i := range o.queue {
		if o.queue[i].Seq == e.Seq {
			o.queue = append(o.queue[:i], o.queue[i+1:]...)
			if o.pending[e.Collection] > 0 {
				o.pending[e.Collection]--
			}
			return
		}
	}
}

// Counts reports the queued and stranded delta counts for one
// collection.
func (o *Outbox) Counts(collection string) (pending, stranded int) {
	o.outMu.Lock()
	defer o.outMu.Unlock()
	return o.pending[collection], o.stranded[collection]
}
