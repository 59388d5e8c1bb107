// Checkpoint persistence for collection servers: each collection's
// merged aggregate state is written as one checksummed binary
// container (LDPSNAP5: a JSON header plus the task's binary state)
// under a state directory, atomically (write a temp file, fsync,
// rename), and restored on startup so a restarted server resumes with
// exactly its pre-restart counts. Snapshots are small — one serialized
// task state per collection, independent of how many reports it
// absorbed — which is what makes frequent checkpointing affordable.
//
// The store also owns each collection's write-ahead journal (see
// journal.go): Save rotates the journal to a fresh segment before
// capturing state, records the rotation point in the snapshot, and
// drops the superseded segments once the snapshot is durable; Load
// replays the surviving segments on top of the restored snapshot.
// Together they make the acked-report invariant hold across crashes:
// what a restarted server serves is exactly what it acknowledged.
//
// Load never refuses startup over one bad file: a snapshot that fails
// its checksum, does not parse, or cannot be restored is set aside
// under a .corrupt suffix — preserved for the operator, ignored by
// future Loads — and every other collection is restored normally. That
// includes the JSON checkpoints of builds older than the container
// (see errPreContainer): refused, never rewritten.
package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/fsio"
	"repro/internal/task"
)

// snapshotExt is the suffix of snapshot files in the state directory;
// anything else in the directory is ignored on load.
const snapshotExt = ".json"

// checkpointTmp is the CreateTemp pattern (and sweep glob) of in-flight
// checkpoint writes.
const checkpointTmp = ".checkpoint-*.tmp"

// corruptExt marks a file Load quarantined: it failed its checksum,
// did not parse, or could not be restored. Appended to the original
// name (snapshot.json.corrupt, name.journal.000002.corrupt), so the
// operator can see what the file was.
const corruptExt = ".corrupt"

// SnapshotVersion is the one checkpoint envelope version this build
// reads and writes: a binary container of the snapshotMagic prefix, a
// CRC32C over everything after it, the uvarint-prefixed JSON header
// (a CollectionSnapshot without its State) and the task's binary state
// to end of file, so a CMS-scale counter matrix is never printed as
// JSON numbers. Versions above it are quarantined at load: a newer
// build's snapshot may carry semantics this build would silently
// misread. Versions 0–4 were JSON files (see errPreContainer).
const SnapshotVersion = 5

// snapshotMagic prefixes checkpoint containers. It is not valid JSON,
// so the pre-container builds quarantine (never misparse) the file.
var snapshotMagic = []byte("LDPSNAP5")

// upgradeBuild names the last commit that reads JSON checkpoints
// (envelope versions 0–4). Started once on the state directory, it
// rewrites every collection as an LDPSNAP5 container at its first
// checkpoint; upgradeHint says so. frameUpgradeBuild names the last
// commit that reads every journal frame format any build wrote — JSON
// payloads and 0x01 batches included — and frameUpgradeHint is how a
// refused frame names it. Set-aside frames replay in order only until
// this build checkpoints their collection: the checkpoint deletes the
// truncated segment, and a replay drops a re-created one unread as
// already folded. So the hint names the stop, the put-back step and
// the README recipe.
const (
	upgradeBuild      = "87453f2"
	upgradeHint       = "which this build does not read — start a build of commit " + upgradeBuild + " on the state directory once to upgrade it, then this build"
	frameUpgradeBuild = "ec114ed"
	frameUpgradeHint  = "which this build does not read — stop this build with SIGKILL before it checkpoints the collection, put the set-aside frames back, and start a build of commit " + frameUpgradeBuild + " on the state directory once (README.md, \"Crossing the frame window\")"
)

// errPreContainer refuses a JSON snapshot file. Nothing since the
// container was introduced writes one, so it either predates
// LDPSNAP5 or is not a checkpoint at all; it is quarantined like any
// other file this build cannot read, never upgraded in place.
var errPreContainer = errors.New("a JSON file, not an LDPSNAP5 container: if it is a checkpoint it predates LDPSNAP5 (envelope versions 0–4), " + upgradeHint)

// CollectionSnapshot is the on-disk format of one collection: its
// configuration (enough to rebuild the aggregator, task tag included)
// and the serialized merged task state (enough to rebuild the counts).
// For phased tasks Round and Frontier record the protocol position the
// state was captured at — Frontier is advisory (operators can read the
// protocol's standing straight off the file), Round is verified
// against the restored state at load. JournalGen is the first journal
// generation NOT folded into this snapshot: restart replays segments
// at or above it and deletes the rest. Batches carries the dedup
// memory of acknowledged batch IDs.
type CollectionSnapshot struct {
	Version int              `json:"version,omitempty"`
	Name    string           `json:"name"`
	Config  CollectionConfig `json:"config"`
	// State is the task's binary state; on disk it follows the header
	// raw.
	State      []byte          `json:"-"`
	Round      int             `json:"round,omitempty"`
	Frontier   json.RawMessage `json:"frontier,omitempty"`
	JournalGen int             `json:"journal_gen,omitempty"`
	Batches    []BatchMark     `json:"batches,omitempty"`
	// Enc is the constant EncBinary in every container header; it is
	// kept so files stay byte-identical to (and readable by) the
	// builds that chose between two state encodings.
	Enc string `json:"enc,omitempty"`
}

// Store persists collection snapshots in one directory, one file per
// collection, and manages the write-ahead journals beside them. It is
// safe for concurrent use; per-collection epochs are tracked so
// checkpointing an unchanged collection skips the disk write entirely.
type Store struct {
	dir         string
	fs          fsio.FS
	journalSync string

	// flushSink receives the deltas re-cut while replaying relay flush
	// frames (see SetFlushSink). Set once before Load, never mutated
	// after, so replay reads it without locking.
	flushSink FlushSink

	// saveGate, when set, can veto a collection's checkpoint (see
	// SetSaveGate). Set once before serving, never mutated after, so
	// Save reads it without locking.
	saveGate func(collection string) error

	mu     sync.Mutex
	saved  map[string]uint64    // collection -> epoch at last successful save
	names  map[string]*nameLock // per-collection lock serializing Save vs Remove
	health map[string]*saveHealth
	sizes  map[string]CheckpointInfo // last written (or restored) snapshot per collection
}

// CheckpointInfo describes a collection's last durable snapshot — its
// on-disk size — served by /status.
type CheckpointInfo struct {
	Bytes int64 `json:"checkpoint_bytes"`
}

// saveHealth tracks one collection's checkpoint failures since its
// last success.
type saveHealth struct {
	failures int
	lastErr  string
}

// CollectionHealth is one collection's durability standing, served by
// GET /healthz: how many checkpoints in a row have failed (0 = the
// last one succeeded), what the last failure said, and how much
// journaled-but-not-checkpointed work a crash right now would have to
// replay. JournalBroken means appends are failing — nothing is being
// acknowledged — until a checkpoint resets the journal.
type CollectionHealth struct {
	SaveFailures     int    `json:"save_failures,omitempty"`
	LastSaveError    string `json:"last_save_error,omitempty"`
	JournalLagFrames int    `json:"journal_lag_frames"`
	JournalLagBytes  int64  `json:"journal_lag_bytes"`
	JournalBroken    bool   `json:"journal_broken,omitempty"`
}

// nameLock is a reference-counted mutex: the map entry is reclaimed
// when the last holder releases it, so create/delete cycles over fresh
// names do not grow Store.names forever.
type nameLock struct {
	mu   sync.Mutex
	refs int
}

// NewStoreFS opens a snapshot directory over an explicit filesystem —
// the seam the crash-consistency tests inject faults through — with
// the given journal sync policy, and sweeps temp files orphaned by a
// crash mid-checkpoint (no checkpoint is in flight at open time, so
// every *.tmp present is a stray).
func NewStoreFS(dir string, fsys fsio.FS, journalSync string) (*Store, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: state dir: %w", err)
	}
	strays, err := fsys.Glob(filepath.Join(dir, checkpointTmp))
	if err != nil {
		return nil, fmt.Errorf("core: sweeping stray checkpoint temp files: %w", err)
	}
	for _, s := range strays {
		_ = fsys.Remove(s) //ldplint:ok fsiocheck stray temp from an interrupted checkpoint; harmless if it survives
	}
	return &Store{
		dir:         dir,
		fs:          fsys,
		journalSync: journalSync,
		saved:       make(map[string]uint64),
		names:       make(map[string]*nameLock),
		health:      make(map[string]*saveHealth),
		sizes:       make(map[string]CheckpointInfo),
	}, nil
}

// LastCheckpoint returns the size of the collection's last written (or
// startup-restored) snapshot, if one is known.
func (st *Store) LastCheckpoint(name string) (CheckpointInfo, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	info, ok := st.sizes[name]
	return info, ok
}

// lockName acquires the lock serializing disk operations on one
// collection's snapshot, so checkpoints of different collections (and
// deletes of unrelated ones) never queue behind each other's disk I/O.
// Release with unlockName. The reference count is taken before
// blocking on the mutex, so an entry is only reclaimed once every
// holder and waiter is gone.
func (st *Store) lockName(name string) *nameLock {
	st.mu.Lock()
	l, ok := st.names[name]
	if !ok {
		l = new(nameLock)
		st.names[name] = l
	}
	l.refs++
	st.mu.Unlock()
	l.mu.Lock()
	return l
}

// unlockName releases a lock taken with lockName, dropping the map
// entry when no one else holds or awaits it.
func (st *Store) unlockName(name string, l *nameLock) {
	l.mu.Unlock()
	st.mu.Lock()
	l.refs--
	if l.refs == 0 {
		delete(st.names, name)
	}
	st.mu.Unlock()
}

// Dir returns the state directory path.
func (st *Store) Dir() string { return st.dir }

// FlushSink receives a delta re-cut during journal replay of a relay
// flush frame. The sink must durably persist the delta (the relay tier
// writes it to the outbox under the frame's idempotency key) — after
// the sink returns, replay drains the replayed state exactly as the
// live flush did.
type FlushSink func(collection string, d Delta) error

// SetFlushSink installs the relay tier's flush sink. It must be called
// before Load: a journal holding flush frames (written by a relay)
// cannot be replayed without one — replay stops at the first, setting
// it and everything behind it aside under .corrupt for the operator.
func (st *Store) SetFlushSink(sink FlushSink) {
	st.flushSink = sink
}

// SetSaveGate installs a predicate that can postpone a collection's
// checkpoint. A checkpoint truncates the journal, and with it any
// flush frames — for a relay, the only durable record of a cut delta
// whose outbox write failed. The relay tier gates checkpoints on
// "every cut delta is durable in the outbox": until then Save fails
// (and is retried by the checkpoint loop) rather than erasing the one
// copy a crash could still recover. Must be set before serving.
func (st *Store) SetSaveGate(gate func(collection string) error) {
	st.saveGate = gate
}

// HasSnapshot reports whether a snapshot file exists for the name. It
// takes no locks and allocates no lock-map entry, so it is safe to
// call with client-supplied names to decide whether Remove is worth
// invoking at all.
func (st *Store) HasSnapshot(name string) bool {
	if ValidateCollectionName(name) != nil {
		return false
	}
	_, err := st.fs.Stat(st.path(name))
	return err == nil
}

func (st *Store) path(name string) string {
	return filepath.Join(st.dir, name+snapshotExt)
}

// Attach gives a freshly created collection its write-ahead journal.
// Segment files left behind by a deleted predecessor of the same name
// are removed (they belong to dropped state; replaying them into the
// new collection would resurrect it), and the new journal starts past
// the highest generation seen, so even an unremovable stray can never
// be confused with a live segment.
func (st *Store) Attach(c *Collection) error {
	l := st.lockName(c.name)
	defer st.unlockName(c.name, l)
	segs, err := journalSegments(st.fs, st.dir, c.name)
	if err != nil {
		return fmt.Errorf("core: attach journal %q: %w", c.name, err)
	}
	gen := 1
	for _, s := range segs {
		_ = st.fs.Remove(s.path) //ldplint:ok fsiocheck pre-attach segment; replay skips it via the generation floor
		if s.gen >= gen {
			gen = s.gen + 1
		}
	}
	c.walMu.Lock()
	c.journal = newJournal(st.fs, st.dir, c.name, gen, st.journalSync)
	c.walMu.Unlock()
	return nil
}

// journalIdle reports whether the collection's journal (if any) is
// healthy and fully checkpointed — the condition under which an
// unchanged-epoch Save may skip the disk write entirely.
func (c *Collection) journalIdle() bool {
	if c.journal == nil {
		return true
	}
	if c.journal.isBroken() {
		return false
	}
	frames, _ := c.journal.lag()
	return frames == 0
}

// JournalHealth returns the collection's journal lag and broken flag
// (zeros when the collection runs memory-only).
func (c *Collection) JournalHealth() (frames int, bytes int64, broken bool) {
	if c.journal == nil {
		return 0, 0, false
	}
	frames, bytes = c.journal.lag()
	return frames, bytes, c.journal.isBroken()
}

// CloseJournal closes the collection's journal file handle. Called on
// delete and shutdown; a closed journal reopens lazily on the next
// append, so closing is never a correctness event.
func (c *Collection) CloseJournal() {
	c.walMu.Lock()
	defer c.walMu.Unlock()
	if c.journal != nil {
		c.journal.close()
	}
}

// Save checkpoints one collection and updates its health record. The
// write is atomic — a temp file in the same directory is renamed over
// the target — so a crash mid-checkpoint leaves the previous snapshot
// intact, never a torn file. Saving a collection whose epoch is
// unchanged since the last successful save (and whose journal is
// empty and healthy) is a no-op.
//
// The registry is consulted under the collection's snapshot lock,
// which covers the whole write: a collection that was deleted (or
// deleted and re-created under the same name) between the caller
// obtaining c and this call is skipped rather than written, so a
// checkpoint racing with DELETE can never resurrect a removed snapshot
// — Remove holds the same lock for the unlink.
func (st *Store) Save(reg *CollectionRegistry, c *Collection) error {
	err := st.save(reg, c)
	st.recordSave(c.name, err)
	return err
}

func (st *Store) save(reg *CollectionRegistry, c *Collection) error {
	if st.saveGate != nil {
		if err := st.saveGate(c.name); err != nil {
			return fmt.Errorf("core: checkpoint of %q postponed: %w", c.name, err)
		}
	}
	l := st.lockName(c.name)
	defer st.unlockName(c.name, l)
	if cur, ok := reg.Get(c.name); !ok || cur != c {
		return nil // deleted or replaced meanwhile; not ours to persist
	}
	epoch := c.agg.Epoch()
	st.mu.Lock()
	saved, ok := st.saved[c.name]
	st.mu.Unlock()
	if ok && saved == epoch && c.journalIdle() {
		return nil
	}

	// The journal rotation and the state capture happen under the
	// exclusive WAL lock: no ingest is in flight, so the captured
	// state is exactly the folds of the frames in generations below
	// newGen — replay after a crash neither loses nor double-counts.
	// The epoch is re-read under the same lock for the same reason:
	// nothing can advance it until the lock drops, and mutations after
	// the drop advance it past this value, so the next Save re-writes
	// rather than wrongly skipping.
	c.walMu.Lock()
	epoch = c.agg.Epoch()
	newGen := 0
	if c.journal != nil {
		newGen = c.journal.rotate()
	}
	merged, err := c.agg.MergedCached()
	if err != nil {
		c.walMu.Unlock()
		return fmt.Errorf("core: checkpoint %q: %w", c.name, err)
	}
	state, err := merged.MarshalState()
	if err != nil {
		c.walMu.Unlock()
		return fmt.Errorf("core: checkpoint %q: %w", c.name, err)
	}
	snap := CollectionSnapshot{
		Version:    SnapshotVersion,
		Name:       c.name,
		Config:     c.cfg,
		State:      state,
		JournalGen: newGen,
		Enc:        EncBinary,
	}
	if p, ok := merged.(task.Phased); ok {
		snap.Round = p.Round()
		if snap.Frontier, err = p.Frontier(); err != nil {
			c.walMu.Unlock()
			return fmt.Errorf("core: checkpoint %q: %w", c.name, err)
		}
	}
	snap.Batches = c.dedup.marks()
	c.walMu.Unlock()

	blob, err := encodeSnapshot(snap)
	if err != nil {
		return fmt.Errorf("core: checkpoint %q: %w", c.name, err)
	}
	if err := fsio.WriteFileAtomic(st.fs, st.path(c.name), checkpointTmp, blob); err != nil {
		return fmt.Errorf("core: checkpoint %q: %w", c.name, err)
	}
	st.mu.Lock()
	st.saved[c.name] = epoch
	st.sizes[c.name] = CheckpointInfo{Bytes: int64(len(blob))}
	st.mu.Unlock()
	// The snapshot is durable: every journal generation below newGen is
	// superseded. Dropping them also clears the journal's broken flag —
	// everything acknowledged is now in the snapshot, so the journal
	// restarts with a clean slate. A drop failure leaves stale segments
	// behind (harmless: restart skips generations below the snapshot's
	// JournalGen) but is surfaced so the health record shows it.
	if c.journal != nil {
		if err := c.journal.dropBefore(newGen); err != nil {
			return fmt.Errorf("core: checkpoint %q: dropping superseded journal segments: %w", c.name, err)
		}
	}
	return nil
}

// recordSave updates the collection's checkpoint health: a success
// clears the record, a failure increments the consecutive-failure
// count and remembers the error.
func (st *Store) recordSave(name string, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err == nil {
		delete(st.health, name)
		return
	}
	h := st.health[name]
	if h == nil {
		h = new(saveHealth)
		st.health[name] = h
	}
	h.failures++
	h.lastErr = err.Error()
}

// Health returns the collection's durability standing: checkpoint
// failure streak plus live journal lag.
func (st *Store) Health(c *Collection) CollectionHealth {
	var out CollectionHealth
	st.mu.Lock()
	if h := st.health[c.name]; h != nil {
		out.SaveFailures = h.failures
		out.LastSaveError = h.lastErr
	}
	st.mu.Unlock()
	out.JournalLagFrames, out.JournalLagBytes, out.JournalBroken = c.JournalHealth()
	return out
}

// SaveAll checkpoints every collection in the registry, continuing
// past individual failures and joining the errors.
func (st *Store) SaveAll(reg *CollectionRegistry) error {
	var errs []error
	for _, c := range reg.Collections() {
		if err := st.Save(reg, c); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Remove deletes the named collection's snapshot file and journal
// segments unless the file belongs to a live collection. Callers must
// deregister the collection first; the registry re-check under the
// snapshot lock then covers the race where a same-named collection is
// re-created (and checkpointed) between the caller's deregistration
// and this unlink. A live case-variant counts only when its snapshot
// path resolves to the same file (a case-insensitive filesystem): on a
// case-sensitive one the variant's file is distinct and the orphan
// must still be unlinked, or it would collide with the variant's
// snapshot at the next Load. The saved-epoch and health entries are
// always cleared, so any later Save for the name re-writes rather than
// skipping on a stale epoch match.
func (st *Store) Remove(reg *CollectionRegistry, name string) error {
	if err := ValidateCollectionName(name); err != nil {
		return err
	}
	l := st.lockName(name)
	defer st.unlockName(name, l)
	st.mu.Lock()
	delete(st.saved, name)
	delete(st.health, name)
	delete(st.sizes, name)
	st.mu.Unlock()
	if live, ok := reg.FoldedName(name); ok {
		if live == name {
			return nil // re-created meanwhile; its snapshot owns the file
		}
		li, lerr := st.fs.Stat(st.path(live))
		ni, nerr := st.fs.Stat(st.path(name))
		if lerr == nil && nerr == nil && os.SameFile(li, ni) {
			return nil // one shared file on a case-insensitive filesystem
		}
	}
	if segs, err := journalSegments(st.fs, st.dir, name); err == nil {
		for _, s := range segs {
			_ = st.fs.Remove(s.path) //ldplint:ok fsiocheck best-effort; a surviving segment is re-dropped or quarantined at Load
		}
	}
	if err := st.fs.Remove(st.path(name)); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("core: remove snapshot %q: %w", name, err)
	}
	return st.fs.SyncDir(st.dir)
}

// encodeSnapshot serializes one snapshot into its on-disk container.
func encodeSnapshot(snap CollectionSnapshot) ([]byte, error) {
	header, err := json.Marshal(snap) // everything but the state
	if err != nil {
		return nil, err
	}
	blob := make([]byte, 0, len(snapshotMagic)+4+10+len(header)+len(snap.State))
	blob = append(blob, snapshotMagic...)
	blob = append(blob, 0, 0, 0, 0) // CRC32C, patched below
	blob = binary.AppendUvarint(blob, uint64(len(header)))
	blob = append(blob, header...)
	blob = append(blob, snap.State...)
	crcOff := len(snapshotMagic)
	binary.LittleEndian.PutUint32(blob[crcOff:crcOff+4], crc32.Checksum(blob[crcOff+4:], crcTable))
	return blob, nil
}

// decodeSnapshot parses a snapshot file, verifying its checksum. Every
// error means the file is corrupt or foreign — quarantine material, not
// an infrastructure failure.
func decodeSnapshot(blob []byte) (CollectionSnapshot, error) {
	if !bytes.HasPrefix(blob, snapshotMagic) {
		if json.Valid(blob) {
			return CollectionSnapshot{}, errPreContainer
		}
		return CollectionSnapshot{}, errors.New("not an LDPSNAP5 container")
	}
	data := blob[len(snapshotMagic):]
	if len(data) < 4 {
		return CollectionSnapshot{}, errors.New("binary container truncated inside the checksum")
	}
	sum := binary.LittleEndian.Uint32(data[:4])
	body := data[4:]
	if got := crc32.Checksum(body, crcTable); got != sum {
		return CollectionSnapshot{}, fmt.Errorf("checksum mismatch: file says %08x, contents hash to %08x", sum, got)
	}
	hlen, n := binary.Uvarint(body)
	if n <= 0 || hlen > uint64(len(body)-n) {
		return CollectionSnapshot{}, errors.New("binary container header length is torn or lying")
	}
	var snap CollectionSnapshot
	if err := json.Unmarshal(body[n:n+int(hlen)], &snap); err != nil {
		return CollectionSnapshot{}, fmt.Errorf("binary container header: %w", err)
	}
	if snap.Version > SnapshotVersion {
		return CollectionSnapshot{}, fmt.Errorf("version %d is newer than this build's %d", snap.Version, SnapshotVersion)
	}
	if snap.Version != SnapshotVersion || snap.Enc != EncBinary {
		return CollectionSnapshot{}, fmt.Errorf("binary container header claims version %d encoding %q", snap.Version, snap.Enc)
	}
	snap.State = body[n+int(hlen):]
	return snap, nil
}

// quarantine sets a corrupt file aside under the .corrupt suffix so
// the operator can inspect it and future Loads skip it. Failure to
// rename is logged, not fatal: the file will fail the same way next
// startup, which is annoying but safe.
func (st *Store) quarantine(path string, reason error) {
	aside := path + corruptExt
	if err := st.fs.Rename(path, aside); err != nil {
		log.Printf("core: quarantining %s: %v (original error: %v)", filepath.Base(path), err, reason)
		return
	}
	_ = st.fs.SyncDir(st.dir) //ldplint:ok fsiocheck best-effort; an undurable quarantine rename re-fails safely next startup
	log.Printf("core: quarantined %s%s: %v", filepath.Base(path), corruptExt, reason)
}

// Load restores every snapshot in the state directory into the
// registry — each file re-creates its collection with the persisted
// configuration, restores the aggregate state exactly, then replays
// the collection's surviving journal segments on top — and returns the
// restored collection names.
//
// Load is deliberately unstoppable: a snapshot that is corrupt,
// unparseable, of a future version, or un-restorable quarantines that
// one collection (the file moves aside under .corrupt) and every other
// collection restores normally. Only infrastructure failures — the
// directory itself unreadable — abort it. Snapshots whose name
// collides with an already-registered collection are set aside under
// .conflict (the caller decides which side wins by ordering Load
// against its own Creates).
func (st *Store) Load(reg *CollectionRegistry) ([]string, error) {
	entries, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("core: state dir: %w", err)
	}
	var restored []string
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), snapshotExt)
		if e.IsDir() || !ok || ValidateCollectionName(name) != nil {
			continue // temp files, strays, quarantined files — not ours to interpret
		}
		path := filepath.Join(st.dir, e.Name())
		blob, err := st.fs.ReadFile(path)
		if err != nil {
			// An unreadable file is an I/O problem, not corruption:
			// renaming it would not help and might lose it. Skip it.
			log.Printf("core: read snapshot %q: %v (skipped)", name, err)
			continue
		}
		snap, err := decodeSnapshot(blob)
		if err != nil {
			st.quarantine(path, fmt.Errorf("snapshot %q: %w", name, err))
			continue
		}
		if snap.Name != name {
			st.quarantine(path, fmt.Errorf("snapshot file %q names collection %q", e.Name(), snap.Name))
			continue
		}
		c, err := reg.Create(name, snap.Config)
		if errors.Is(err, ErrCollectionExists) {
			// Two snapshots colliding up to letter case (an orphan a
			// failed delete left beside its re-created variant, or a
			// state dir written by an older build). Failing startup
			// would hold every other collection hostage; instead the
			// loser is set aside under a .conflict suffix — preserved
			// for the operator, ignored by future Loads.
			aside := path + ".conflict"
			if rerr := st.fs.Rename(path, aside); rerr != nil {
				log.Printf("core: restore %q: %v (and could not set snapshot aside: %v)", name, err, rerr)
				continue
			}
			_ = st.fs.SyncDir(st.dir) //ldplint:ok fsiocheck best-effort; an undurable set-aside re-fails safely next startup
			log.Printf("core: restore %q: %v (snapshot set aside as %s)", name, err, filepath.Base(aside))
			continue
		}
		if err != nil {
			st.quarantine(path, fmt.Errorf("snapshot %q: %w", name, err))
			continue
		}
		if len(snap.State) > 0 {
			if err := c.agg.RestoreState(snap.State); err != nil {
				reg.Delete(name) // don't leave a half-restored collection serving
				st.quarantine(path, fmt.Errorf("snapshot %q: %w", name, err))
				continue
			}
		}
		// Cross-check the envelope's recorded round against the
		// restored state: a mismatch means the file was assembled from
		// two different protocol positions (hand-edited, or written by
		// a buggy tool) and resuming it would split users across
		// rounds.
		if c.agg.Phased() && snap.Round != c.agg.Round() {
			reg.Delete(name)
			st.quarantine(path, fmt.Errorf("snapshot %q: envelope says round %d but the state restores to round %d",
				name, snap.Round, c.agg.Round()))
			continue
		}
		replayed, err := st.replayJournal(c, snap)
		if err != nil {
			// Journal infrastructure failure (segments unlistable):
			// the snapshot state itself is sound, but acknowledged
			// reports may be missing from it. Surface, keep serving.
			log.Printf("core: replay journal %q: %v", name, err)
		}
		st.mu.Lock()
		if replayed == 0 {
			// Nothing beyond the snapshot: the next checkpoint may
			// skip on an unchanged epoch. With replayed frames the
			// epoch entry is withheld so the next checkpoint persists
			// the replayed state and truncates the journal.
			st.saved[name] = c.agg.Epoch()
		}
		st.sizes[name] = CheckpointInfo{Bytes: int64(len(blob))}
		st.mu.Unlock()
		restored = append(restored, name)
	}
	st.sweepOrphanJournals(reg)
	return restored, nil
}

// replayJournal folds the collection's surviving journal segments —
// acknowledged work that missed the last checkpoint — into the freshly
// restored aggregator, re-seeds the dedup memory, and attaches a live
// journal whose generation is past every segment seen. It returns how
// many frames were replayed.
//
// Replay never refuses startup: the first bad frame (torn tail,
// checksum mismatch, a payload this build cannot read, or a record the
// aggregator rejects) truncates its segment at the last applied frame,
// and any later segments — written after a frame that was not applied,
// so of uncertain lineage — are quarantined. A torn tail was never
// acknowledged and is simply cut; a frame whose checksum holds was, so
// when replay cannot read or apply one, it and everything behind it
// are first copied aside under a .corrupt name.
func (st *Store) replayJournal(c *Collection, snap CollectionSnapshot) (int, error) {
	c.dedup.seed(snap.Batches)

	segs, err := journalSegments(st.fs, st.dir, c.name)
	if err != nil {
		c.walMu.Lock()
		c.journal = newJournal(st.fs, st.dir, c.name, max(snap.JournalGen, 1), st.journalSync)
		c.walMu.Unlock()
		return 0, err
	}
	gen := max(snap.JournalGen, 1)
	replayed := 0
	stopped := false
	j := newJournal(st.fs, st.dir, c.name, gen, st.journalSync) // gen re-raised below
	for _, s := range segs {
		if s.gen >= gen {
			gen = s.gen + 1
		}
		if s.gen < snap.JournalGen {
			// Folded into the snapshot already; a crash between the
			// snapshot rename and the segment drop leaves these behind.
			_ = st.fs.Remove(s.path) //ldplint:ok fsiocheck superseded by the durable snapshot; re-dropped next startup
			continue
		}
		if stopped {
			st.quarantine(s.path, errors.New("journal segment follows a truncated one"))
			continue
		}
		data, err := st.fs.ReadFile(s.path)
		if err != nil {
			log.Printf("core: read journal segment %s: %v (later segments quarantined)", filepath.Base(s.path), err)
			stopped = true
			continue
		}
		frames, bytes, off := 0, int64(0), 0
		var refused error // set when the frame at off is sound but could not be read or applied
		for off < len(data) {
			// rec aliases data, which nothing writes to again.
			rec, n, err := nextFrame(data[off:])
			if errors.Is(err, errTornFrame) {
				break
			}
			if err == nil {
				err = c.replayRecord(rec, st.flushSink)
			}
			if err != nil {
				refused = err
				break
			}
			off += n
			frames++
			bytes += int64(n)
			replayed++
		}
		if off < len(data) {
			st.cutTail(s.path, off, data[off:], refused)
			stopped = true
		}
		if frames > 0 {
			j.addExisting(s.gen, frames, bytes)
		}
	}
	j.gen = gen
	c.walMu.Lock()
	c.journal = j
	c.walMu.Unlock()
	return replayed, nil
}

// cutTail truncates a segment at off, the end of its last applied
// frame, so the file matches what was replayed. A torn tail (refused
// is nil) was never acknowledged and is simply cut. Frames that are
// sound but could not be read (a format this build does not know —
// what a rolled-back build meets) or applied were acknowledged: they
// are first copied aside under a .corrupt name that is not a
// generation, so no later Load takes it for a segment, and if that copy
// fails the segment is left whole rather than cut.
func (st *Store) cutTail(seg string, off int, tail []byte, refused error) {
	if refused != nil {
		aside := fmt.Sprintf("%s.tail-%d%s", seg, off, corruptExt)
		if err := fsio.WriteFileAtomic(st.fs, aside, checkpointTmp, tail); err != nil {
			log.Printf("core: replay %s at offset %d: %v (the unapplied frames could not be set aside, so the segment is left whole: %v)",
				filepath.Base(seg), off, refused, err)
			return
		}
		log.Printf("core: replay %s at offset %d: %v (unapplied frames set aside as %s)", filepath.Base(seg), off, refused, filepath.Base(aside))
	}
	if err := st.fs.Truncate(seg, int64(off)); err != nil {
		log.Printf("core: truncate %s to %d bytes: %v", filepath.Base(seg), off, err)
	}
}

// replayRecord applies one journal record to the restored aggregator,
// mirroring exactly what the live ingest path did when it wrote the
// frame.
func (c *Collection) replayRecord(rec journalRecord, sink FlushSink) error {
	switch rec.Kind {
	case kindBatch:
		// Envelopes the fold rejects were rejected live too; the frame
		// itself never fails.
		c.foldBatch(rec)
		return nil
	case kindAdvance:
		// The frame records which round was closed; replay refuses to
		// close any other round, so a frame applied out of order (or
		// against the wrong snapshot) surfaces instead of silently
		// splitting users across rounds.
		return c.agg.AdvanceExpecting(rec.Round)
	case kindMerge:
		delta, err := c.agg.NewDelta(rec.State)
		if err != nil {
			return err
		}
		_, err = c.foldMerge(rec.ID, delta)
		return err
	case kindFlush:
		// A relay cut its state into an outbound delta here. Re-cut the
		// replayed state under the frame's idempotency key and hand it
		// to the flush sink (which rewrites the outbox file); the
		// upstream's dedup makes the re-emitted delta fold exactly once
		// no matter how far the original got. Replaying onto an empty
		// aggregator (frames before the cut already checkpointed away)
		// leaves nothing to re-emit — the outbox file, if the crash
		// preserved it, is still sent by the boot-time outbox scan.
		if sink == nil {
			return fmt.Errorf("flush frame in the journal of collection %q but no flush sink installed (journal written in relay mode; restart with -mode relay)", c.name)
		}
		d, err := c.cutLocked(rec.ID, false)
		if err != nil {
			return err
		}
		if d == nil {
			return nil
		}
		return sink(c.name, *d)
	case kindAdopt:
		return c.agg.AdoptFrontier(rec.Frontier)
	default:
		return fmt.Errorf("unknown journal record kind 0x%02x", rec.Kind)
	}
}

// sweepOrphanJournals quarantines journal segments whose collection
// did not restore: with no snapshot to anchor them (the collection was
// never checkpointed, or its snapshot was itself quarantined) their
// replay base is unknown, and folding them into anything would be a
// guess. The bytes are preserved under .corrupt for the operator.
func (st *Store) sweepOrphanJournals(reg *CollectionRegistry) {
	matches, err := st.fs.Glob(filepath.Join(st.dir, "*.journal.*"))
	if err != nil {
		log.Printf("core: sweeping orphan journals: %v", err)
		return
	}
	for _, m := range matches {
		base := filepath.Base(m)
		idx := strings.LastIndex(base, ".journal.")
		if idx <= 0 {
			continue
		}
		if _, err := parseGen(base[idx+len(".journal."):]); err != nil {
			continue // quarantined or foreign file; not a live segment
		}
		owner := base[:idx]
		if _, ok := reg.Get(owner); ok {
			continue
		}
		st.quarantine(m, fmt.Errorf("journal segment for unrestored collection %q", owner))
	}
}
