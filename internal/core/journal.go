// Write-ahead report journal: the durability half the checkpoint store
// alone cannot provide. Snapshots bound restart cost but are periodic,
// so every report accepted since the last checkpoint used to die with
// the process. The journal closes that window: accepted report batches
// (and round advances) are appended as CRC32C-framed records to a
// per-collection segment file BEFORE they are folded into the
// aggregator, and a restart replays the surviving frames on top of the
// restored snapshot. Checkpoints rotate the journal to a fresh segment
// and delete the superseded ones once the snapshot is durable, so the
// journal stays as short as the checkpoint interval.
//
// Frame format (little-endian):
//
//	[4 bytes payload length][4 bytes CRC32C of payload][payload]
//
// The payload is a binenc record — a kind byte, the idempotency key
// (a length-prefixed string, empty when the record has none), then the
// kind's fields as zig-zag varints and length-prefixed blobs:
//
//	kind  record          fields after the key
//	0x01  —               refused: JSON report envelopes, written by builds up to e14390b
//	0x02  batch           uvarint n, n blobs: the binary report payloads
//	0x03  advance         varint round
//	0x04  merge           varint reports, blob: the delta's binary task state
//	0x05  flush           varint reports, varint round
//	0x06  adopt           varint round, blob: the adopted frontier
//
// A JSON report is journaled as the binary payload its task translated
// it to (empty if it did not translate), so nothing is escaped or
// base64'd, and replay never translates. A payload that begins with
// '{' — the JSON object builds up to commit 71ad1eb wrote — is refused
// like a 0x01 batch: no kind byte is '{'.
//
// A torn final frame — the expected debris of a crash mid-append — fails
// its length or checksum and is truncated away at replay; it was never
// acknowledged, so dropping it is exactly right. A frame whose checksum
// holds was written whole, hence acknowledged: if this build cannot
// read its payload, or replay cannot apply it, it is set aside, not
// dropped (see Store.cutTail). Replay never refuses startup.
package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/binenc"
	"repro/internal/fsio"
	"repro/internal/task"
)

// ErrJournal marks a failure to append to the write-ahead journal: the
// report was NOT durably recorded and must not be acknowledged. The
// HTTP layer maps it to 503 so clients retry (safely — retries are
// deduplicated by batch ID).
var ErrJournal = errors.New("core: report journal unavailable")

// ErrBatchInFlight is returned when a batch ID is claimed by a request
// still being processed; the retrying client should back off and try
// again, by which time the first attempt has completed (and the retry
// deduplicates) or failed (and the retry proceeds).
var ErrBatchInFlight = errors.New("core: batch with this idempotency key is still in flight")

// journalSyncEvery / journalSyncNone are the -journal-sync policies:
// fsync after every append (an acknowledged report survives power
// loss) or never (an acknowledged report survives process crashes via
// the page cache, but a power cut can lose the tail).
const (
	JournalSyncEvery = "always"
	JournalSyncNone  = "none"
)

// crcTable is the Castagnoli (CRC32C) polynomial, the standard choice
// for storage framing (iSCSI, ext4, leveldb).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record kinds, each the first byte of its frame payload (layout in
// the file header). Batches carry report payloads (and the dedup ID
// that acknowledged them); advances record a phased collection's round
// boundary so replay closes rounds at exactly the positions the live
// process did. The relay tier adds three kinds: merges carry a folded
// delta's state (so an acknowledged /merge is recoverable exactly like
// an acknowledged batch), flushes mark the point a relay cut its
// accumulated state into an outbound delta (replay re-cuts and re-emits
// the same delta under the same idempotency key), and adopts record a
// relay re-aligning with an upstream-published frontier.
// kindBatchJSON is refused, never written. None may ever be '{'.
const (
	kindBatchJSON byte = 1 + iota
	kindBatch
	kindAdvance
	kindMerge
	kindFlush
	kindAdopt
)

// EncBinary tags binary-encoded task state wherever an encoding is
// recorded — checkpoint headers and delta headers. It is a constant,
// and anything else is refused.
const EncBinary = "bin"

// journalRecord is one frame's content: what ingest hands the journal
// and what replay gets back. A record read from a segment aliases the
// segment's bytes (Bins, State, Frontier are slices of the buffer it
// was parsed from), as one built by the HTTP layer aliases the request
// body; nothing downstream of the fold retains them.
type journalRecord struct {
	Kind     byte
	ID       string          // batch/merge: idempotency key; flush: the cut delta's key
	Bins     [][]byte        // batch: binary report payloads as received
	Round    int             // advance: the round that was closed; flush/adopt: round at the boundary
	State    []byte          // merge: the delta's binary task state
	Reports  int             // merge/flush: report count the state carries
	Frontier json.RawMessage // adopt: the upstream frontier that was adopted
}

// maxFrameBytes bounds the payload length of a frame this build
// appends. A frame is its payloads plus five bytes a report, the
// idempotency key and a small header, and translated JSON frames to at
// most 13 bytes for every 3 of its body — an hh `{}` becomes a 12-byte
// payload and its length byte (TestFrameSizeBound). Replay does not
// read the limit: a checksummed frame is sound whatever its length.
const maxFrameBytes = 13*maxBatchBytes/3 + maxBatchIDBytes + 48

// errFrameTooLarge refuses a record past maxFrameBytes. Nothing was
// written and the journal stays healthy; HTTP maps it to 413. No body
// within the request caps can reach it (see maxFrameBytes) — it guards
// embedders that call the ingest functions directly, and keeps every
// length well inside the frame header's 32 bits.
var errFrameTooLarge = errors.New("core: record exceeds the journal's frame limit")

// segStats tracks one segment's outstanding (not yet checkpointed)
// frames, the "journal lag" /healthz reports.
type segStats struct {
	frames int
	bytes  int64
}

// journal is one collection's write-ahead log, a sequence of segment
// files <name>.journal.<gen>. Appends go to the active (highest)
// generation; a checkpoint rotates to the next generation and, once
// its snapshot is durable, drops every generation it superseded.
type journal struct {
	fs       fsio.FS
	dir      string
	name     string
	syncEach bool

	// mu serializes appends with each other and with rotation: the
	// collection's walMu orders append+fold pairs against checkpoint
	// boundaries, but concurrent ingests hold walMu shared, so frame
	// writes and the stats map need their own lock.
	mu      sync.Mutex
	f       fsio.File
	gen     int
	broken  error // first append failure; set until a checkpoint clears it
	pending map[int]*segStats
}

func newJournal(fsys fsio.FS, dir, name string, gen int, syncPolicy string) *journal {
	return &journal{
		fs:       fsys,
		dir:      dir,
		name:     name,
		syncEach: syncPolicy != JournalSyncNone,
		gen:      gen,
		pending:  make(map[int]*segStats),
	}
}

func journalSegPath(dir, name string, gen int) string {
	return filepath.Join(dir, fmt.Sprintf("%s.journal.%06d", name, gen))
}

// parseGen parses a segment file's generation suffix; an error means
// the file is not a live segment (quarantined, or foreign).
func parseGen(suffix string) (int, error) {
	gen, err := strconv.Atoi(suffix)
	if err != nil {
		return 0, err
	}
	if gen < 0 {
		return 0, fmt.Errorf("negative generation %d", gen)
	}
	return gen, nil
}

// segRef is one on-disk segment.
type segRef struct {
	gen  int
	path string
}

// journalSegments lists the collection's segment files sorted by
// generation. Files matching the glob but without a numeric generation
// suffix are ignored (they are not ours to interpret).
func journalSegments(fsys fsio.FS, dir, name string) ([]segRef, error) {
	matches, err := fsys.Glob(filepath.Join(dir, name+".journal.*"))
	if err != nil {
		return nil, err
	}
	segs := make([]segRef, 0, len(matches))
	for _, m := range matches {
		gen, err := parseGen(strings.TrimPrefix(filepath.Base(m), name+".journal."))
		if err != nil {
			continue
		}
		segs = append(segs, segRef{gen: gen, path: m})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].gen < segs[j].gen })
	return segs, nil
}

// frame encodes one record, header and payload, into a pooled Writer
// the caller Releases. It is the journal's only encoder.
func frame(rec journalRecord) (*binenc.Writer, error) {
	w := binenc.NewWriter()
	w.Uint64(0) // length and CRC32C, patched once the payload is behind them
	w.Byte(rec.Kind)
	w.String(rec.ID)
	switch rec.Kind {
	case kindBatch:
		w.Uvarint(uint64(len(rec.Bins)))
		for _, bin := range rec.Bins {
			w.Blob(bin)
		}
	case kindAdvance:
		w.Varint(int64(rec.Round))
	case kindMerge:
		w.Varint(int64(rec.Reports))
		w.Blob(rec.State)
	case kindFlush:
		w.Varint(int64(rec.Reports))
		w.Varint(int64(rec.Round))
	case kindAdopt:
		w.Varint(int64(rec.Round))
		w.Blob(rec.Frontier)
	default:
		w.Release()
		return nil, fmt.Errorf("unknown journal record kind 0x%02x", rec.Kind)
	}
	buf := w.Bytes()
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(buf)-8))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(buf[8:], crcTable))
	return w, nil
}

// append writes one frame to the active segment, creating it if
// needed, syncing per policy. A record too large to replay is refused
// before anything is written; any other failure marks the journal broken:
// every later append fails too, so nothing further is acknowledged
// until a successful checkpoint supersedes the journal and clears the
// flag — the invariant "ack ⇒ durably journaled or checkpointed" holds
// even across partial writes.
func (j *journal) append(rec journalRecord) error {
	return j.appendWith(rec, false)
}

// appendSync appends one frame and fsyncs it regardless of the sync
// policy. Flush boundaries use it: the frame is the only durable
// record that a delta left the aggregator, so "delta acknowledged to
// the outbox ⇒ flush frame durable" must hold even under -journal-sync
// none.
func (j *journal) appendSync(rec journalRecord) error {
	return j.appendWith(rec, true)
}

func (j *journal) appendWith(rec journalRecord, forceSync bool) error {
	// The frame is encoded and checksummed before the lock is taken:
	// concurrent ingests (they hold walMu shared) serialize on the
	// write and the sync alone.
	w, err := frame(rec)
	if err != nil {
		return fmt.Errorf("%w: encoding frame: %v", ErrJournal, err)
	}
	defer w.Release()
	buf := w.Bytes()
	if n := len(buf) - 8; n > maxFrameBytes {
		return fmt.Errorf("%w (%d > %d bytes)", errFrameTooLarge, n, maxFrameBytes)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken != nil {
		return fmt.Errorf("%w (since: %v)", ErrJournal, j.broken)
	}
	if j.f == nil {
		f, err := j.fs.OpenFile(journalSegPath(j.dir, j.name, j.gen), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			j.broken = err
			return fmt.Errorf("%w: %v", ErrJournal, err)
		}
		j.f = f
	}
	// One Write call per frame, under the lock: a torn write can split
	// a frame (the replay truncates it) but frames never interleave.
	if _, err := j.f.Write(buf); err != nil {
		j.broken = err
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	if j.syncEach || forceSync {
		if err := j.f.Sync(); err != nil {
			j.broken = err
			return fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	st := j.pending[j.gen]
	if st == nil {
		st = &segStats{}
		j.pending[j.gen] = st
	}
	st.frames++
	st.bytes += int64(len(buf))
	return nil
}

// rotate closes the active segment and moves appends to the next
// generation, returning the new generation. Every frame in generations
// below the returned one is folded into the aggregator by the time the
// caller (holding the collection's exclusive WAL lock) snapshots it.
func (j *journal) rotate() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		// Acked frames were already synced per policy; a Close error
		// here cannot lose acknowledged data.
		_ = j.f.Close() //ldplint:ok fsiocheck acked frames already synced; nothing to lose at close
		j.f = nil
	}
	j.gen++
	return j.gen
}

// dropBefore removes every segment file with generation < gen — they
// are superseded by a durable snapshot — and clears the broken flag:
// the journal restarts empty, so earlier append failures no longer
// taint it.
func (j *journal) dropBefore(gen int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	segs, err := journalSegments(j.fs, j.dir, j.name)
	if err != nil {
		return err
	}
	var errs []error
	for _, s := range segs {
		if s.gen >= gen {
			continue
		}
		if err := j.fs.Remove(s.path); err != nil {
			errs = append(errs, err)
			continue
		}
		delete(j.pending, s.gen)
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	j.broken = nil
	return nil
}

// addExisting seeds the lag accounting with a pre-restart segment the
// restart replayed (its frames are outstanding until the next
// checkpoint drops them).
func (j *journal) addExisting(gen, frames int, bytes int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.pending[gen] = &segStats{frames: frames, bytes: bytes}
}

// lag sums the outstanding (un-checkpointed) frames and bytes.
func (j *journal) lag() (frames int, bytes int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, st := range j.pending {
		frames += st.frames
		bytes += st.bytes
	}
	return frames, bytes
}

// isBroken reports whether appends are failing (journal unavailable
// until the next successful checkpoint).
func (j *journal) isBroken() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.broken != nil
}

func (j *journal) close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		_ = j.f.Close() //ldplint:ok fsiocheck acked frames already synced; nothing to lose at close
		j.f = nil
	}
}

// errTornFrame is nextFrame's answer when no whole frame starts the
// data: framing has lost sync and everything from there on is
// untrusted — and was never acknowledged.
var errTornFrame = errors.New("torn journal frame")

// nextFrame decodes the frame at the start of data. errTornFrame means
// a short header, a length that is zero or runs past the data, or a
// checksum mismatch: nothing sound is there. Any other error comes
// with the frame's size: the checksum held, so the frame was written
// whole and acknowledged, but this build cannot read its payload (a
// format it refuses, a kind it does not know, malformed or trailing
// fields) — the caller must preserve it, not cut it. The length is
// never judged against maxFrameBytes: a longer frame an older build
// wrote is sound, and is refused by its payload, not cut as torn.
func nextFrame(data []byte) (journalRecord, int, error) {
	if len(data) < 8 {
		return journalRecord{}, 0, errTornFrame // torn inside the header
	}
	n := int(binary.LittleEndian.Uint32(data[0:4]))
	sum := binary.LittleEndian.Uint32(data[4:8])
	if n == 0 || 8+n > len(data) {
		// Torn length. Zero is never written (every payload has a kind
		// byte) but checksums clean, and is what a crash that grew the
		// file ahead of its data leaves behind.
		return journalRecord{}, 0, errTornFrame
	}
	payload := data[8 : 8+n]
	if crc32.Checksum(payload, crcTable) != sum {
		return journalRecord{}, 0, errTornFrame // bit rot or torn write inside the frame
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		return journalRecord{}, 8 + n, fmt.Errorf("sound frame with a payload this build cannot read: %w", err)
	}
	return rec, 8 + n, nil
}

// decodeRecord parses one checksummed, non-empty frame payload. The
// record's slices alias payload. The two formats older builds wrote —
// a JSON object, and a 0x01 batch of JSON envelopes — are refused,
// naming the build that reads them.
func decodeRecord(payload []byte) (journalRecord, error) {
	if payload[0] == '{' {
		return journalRecord{}, errors.New("a JSON frame payload, written by builds up to commit 71ad1eb, " + frameUpgradeHint)
	}
	r := binenc.NewReader(payload)
	rec := journalRecord{Kind: r.Byte(), ID: r.String()}
	switch rec.Kind {
	case kindBatch:
		rec.Bins = make([][]byte, r.Length(1))
		for i := range rec.Bins {
			rec.Bins[i] = r.Blob()
		}
	case kindAdvance:
		rec.Round = int(r.Varint())
	case kindMerge:
		rec.Reports = int(r.Varint())
		rec.State = r.Blob()
	case kindFlush:
		rec.Reports = int(r.Varint())
		rec.Round = int(r.Varint())
	case kindAdopt:
		rec.Round = int(r.Varint())
		rec.Frontier = r.Blob()
	case kindBatchJSON:
		return journalRecord{}, errors.New("a 0x01 batch of JSON report envelopes, written by builds up to commit e14390b, " + frameUpgradeHint)
	default:
		return journalRecord{}, fmt.Errorf("unknown frame kind 0x%02x", rec.Kind)
	}
	if err := r.Done(); err != nil {
		return journalRecord{}, err
	}
	return rec, nil
}

// BatchResult is the outcome of one idempotent batch ingest.
type BatchResult struct {
	Accepted int
	Rejected int
	// Replayed marks a deduplicated retry: the batch was already
	// aggregated, the recorded outcome is returned again.
	Replayed bool
	// RejectErr details per-envelope rejections (a client-side error;
	// the batch's accepted remainder was still aggregated).
	RejectErr error
}

// IngestBatch is IngestBatchBinary for JSON report envelopes, which
// the task translates first, outside every lock; RejectErr names the
// translation error of an envelope that did not translate.
func (c *Collection) IngestBatch(id string, batch []json.RawMessage) (BatchResult, error) {
	t := c.agg.translate(batch)
	defer t.w.Release()
	res, err := c.IngestBatchBinary(id, t.bins)
	res.RejectErr = c.agg.explain(batch, t.bins, res.RejectErr)
	return res, err
}

// IngestBatchBinary runs the write-ahead ingest path (see ingest) for
// one batch of binary wire payloads. id may be empty (no dedup).
func (c *Collection) IngestBatchBinary(id string, batch [][]byte) (BatchResult, error) {
	return c.ingest(journalRecord{Kind: kindBatch, ID: id, Bins: batch})
}

// claim takes the idempotency key for one request (a no-op for the
// empty key). replayed comes with the recorded outcome of the first
// attempt; ErrBatchInFlight means that attempt is still running.
func (c *Collection) claim(id string) (first BatchMark, replayed bool, err error) {
	if id == "" {
		return BatchMark{}, false, nil
	}
	switch mark, state := c.dedup.claim(id); state {
	case dedupDone:
		return mark, true, nil
	case dedupInflight:
		return BatchMark{}, false, ErrBatchInFlight
	}
	return BatchMark{}, false, nil
}

// ingest is the one write-ahead path every report takes, whatever its
// route and wire encoding: claim the idempotency key (dedup retries, fence
// concurrent duplicates), append the record to the journal, then fold
// it into the aggregator and record the outcome under the key — in
// that order, so an acknowledged batch is always recoverable and an
// unacknowledged one is never double-counted when the client retries
// it. The shared WAL lock spans append, fold and the dedup record, so
// a checkpoint captures a batch's reports and its key together or not
// at all.
func (c *Collection) ingest(rec journalRecord) (BatchResult, error) {
	mark, replayed, err := c.claim(rec.ID)
	if replayed {
		return BatchResult{Accepted: mark.Accepted, Rejected: mark.Rejected, Replayed: true}, nil
	}
	if err != nil {
		return BatchResult{}, err
	}
	c.walMu.RLock()
	defer c.walMu.RUnlock()
	if c.journal != nil {
		if err := c.journal.append(rec); err != nil {
			c.dedup.abandon(rec.ID)
			return BatchResult{}, err
		}
	}
	return c.foldBatch(rec), nil
}

// foldBatch folds one batch record's payloads and records the outcome
// under its idempotency key: what the live path does after its append
// and what replay does with the frame it read.
func (c *Collection) foldBatch(rec journalRecord) BatchResult {
	var res BatchResult
	res.Accepted, res.RejectErr = c.agg.AddBatchBinary(rec.Bins)
	res.Rejected = len(rec.Bins) - res.Accepted
	if rec.ID != "" {
		c.dedup.complete(BatchMark{ID: rec.ID, Accepted: res.Accepted, Rejected: res.Rejected})
	}
	return res
}

// AdvanceExpecting closes the collection's current round (see
// ShardedAggregator.AdvanceExpecting) and journals the boundary, under
// the exclusive WAL lock so no report batch straddles it: every
// journaled frame lies wholly before or wholly after the advance
// frame, exactly matching the order the aggregator saw.
func (c *Collection) AdvanceExpecting(expect int) error {
	c.walMu.Lock()
	defer c.walMu.Unlock()
	round := c.agg.Round()
	if err := c.agg.AdvanceExpecting(expect); err != nil {
		return err
	}
	c.journalAdvanceLocked(round)
	return nil
}

// MaybeAdvance quota-advances the round (see
// ShardedAggregator.MaybeAdvance), journaling the boundary like
// AdvanceExpecting. The lock-free pre-check keeps per-report polling
// off the WAL lock.
func (c *Collection) MaybeAdvance(quota int) (bool, error) {
	if quota <= 0 || !c.agg.Phased() {
		return false, nil
	}
	if c.agg.Done() || c.agg.RoundReports() < quota {
		return false, nil
	}
	c.walMu.Lock()
	defer c.walMu.Unlock()
	round := c.agg.Round()
	advanced, err := c.agg.MaybeAdvance(quota)
	if advanced {
		c.journalAdvanceLocked(round)
	}
	return advanced, err
}

// journalAdvanceLocked appends the advance frame for a round that was
// just closed; the caller holds walMu exclusively. A failed append
// leaves the advance applied in memory but unjournaled — the journal
// is then broken, so no later report is acknowledged until a
// checkpoint (which the serving layer triggers after every advance)
// persists the post-advance state and resets the journal; a crash in
// between only loses unacknowledged work.
func (c *Collection) journalAdvanceLocked(round int) {
	if c.journal == nil {
		return
	}
	if err := c.journal.append(journalRecord{Kind: kindAdvance, Round: round}); err != nil {
		log.Printf("core: journaling advance of collection %q past round %d: %v", c.name, round, err)
	}
}

// MergeResult is the outcome of folding one delta.
type MergeResult struct {
	// Accepted is the number of reports the delta's state carried into
	// the aggregator.
	Accepted int
	// Replayed marks a deduplicated retry: the delta was already
	// folded, the recorded outcome is returned again.
	Replayed bool
}

// IngestMerge folds one relay delta through the write-ahead path:
// claim the idempotency key, decode and validate the delta's state,
// journal it, then fold it with the exact Merge machinery — claim →
// validate → journal → fold, so an acknowledged delta is always
// recoverable, a retried one never double-counts, and a delta that
// cannot fold (wrong round, undecodable state) is rejected BEFORE it
// is journaled — a frame that would fail at replay must never be
// written. d.ID may be empty (no deduplication; still journaled).
//
// Phased collections additionally require the delta's round position
// to match the collection's (checkDelta): the check runs under the
// shared WAL lock, where the round cannot move (advances hold it
// exclusively), so a delta validated here cannot become wrong-round
// before its fold. A mismatch wraps task.ErrWrongRound for the HTTP
// layer's 409 mapping.
func (c *Collection) IngestMerge(d Delta) (MergeResult, error) {
	mark, replayed, err := c.claim(d.ID)
	if replayed {
		return MergeResult{Accepted: mark.Accepted, Replayed: true}, nil
	}
	if err != nil {
		return MergeResult{}, err
	}
	n, err := c.mergeClaimed(d)
	if err != nil {
		// Not acknowledged, so the key is released. If the failure came
		// after the append, replay will hit it too and truncate the
		// frame as corruption.
		c.dedup.abandon(d.ID)
		return MergeResult{}, err
	}
	return MergeResult{Accepted: n}, nil
}

// mergeClaimed is IngestMerge's validate → journal → fold sequence
// under the shared WAL lock.
func (c *Collection) mergeClaimed(d Delta) (int, error) {
	c.walMu.RLock()
	defer c.walMu.RUnlock()
	delta, err := c.agg.NewDelta(d.State)
	if err != nil {
		return 0, err
	}
	if err := c.agg.checkDelta(delta); err != nil {
		return 0, err
	}
	if c.journal != nil {
		rec := journalRecord{Kind: kindMerge, ID: d.ID, State: d.State, Reports: delta.Collected()}
		if err := c.journal.append(rec); err != nil {
			return 0, err
		}
	}
	return c.foldMerge(d.ID, delta)
}

// foldMerge folds a decoded delta and records the outcome under its
// idempotency key: what the live path does after its append and what
// replay does with the merge frame it read.
func (c *Collection) foldMerge(id string, delta task.Aggregator) (int, error) {
	n, err := c.agg.FoldDelta(delta)
	if err != nil {
		return 0, err
	}
	if id != "" {
		c.dedup.complete(BatchMark{ID: id, Accepted: n})
	}
	return n, nil
}

// CutDelta captures everything the collection has accumulated since
// its last cut as an outbound Delta and drains the shards, journaling
// a flush frame at the boundary. The frame is appended (and always
// fsynced, whatever the sync policy) BEFORE the drain: it is the only
// durable record that the cut state left the aggregator, so a crash
// anywhere after it replays the pre-cut frames, re-cuts the identical
// state under the identical idempotency key, and re-emits it — the
// upstream's dedup index makes the resend fold exactly once.
//
// Returns (nil, nil) when the collection holds no reports — nothing to
// flush, no frame written. id names the cut for upstream deduplication.
func (c *Collection) CutDelta(id string) (*Delta, error) {
	c.walMu.Lock()
	defer c.walMu.Unlock()
	return c.cutLocked(id, true)
}

// CutAndAdopt cuts the collection's accumulated state (when any) and
// then re-aligns it with an upstream-published frontier, as one atomic
// step under the exclusive WAL lock — the force-flush a relay performs
// when its round view went stale: nothing already accepted is lost to
// the adoption, and no report lands between the cut and the adopt.
// The returned Delta (nil when the collection was empty) still carries
// the OLD round; the upstream will 409 it, and the caller strands it
// for the operator rather than dropping acknowledged reports.
func (c *Collection) CutAndAdopt(id string, frontier json.RawMessage) (*Delta, error) {
	c.walMu.Lock()
	defer c.walMu.Unlock()
	d, err := c.cutLocked(id, true)
	if err != nil {
		return nil, err
	}
	if err := c.adoptLocked(frontier); err != nil {
		return d, err
	}
	return d, nil
}

// AdoptFrontier re-aligns a phased collection with an upstream
// frontier without cutting (boot-time mirroring of a virgin relay
// collection). Any accumulated current-round reports are discarded —
// callers flush first (or use CutAndAdopt).
func (c *Collection) AdoptFrontier(frontier json.RawMessage) error {
	c.walMu.Lock()
	defer c.walMu.Unlock()
	return c.adoptLocked(frontier)
}

// cutLocked is CutDelta under an already-held exclusive WAL lock.
// Replay reuses it with journalFrame=false: the flush frame being
// replayed is already durable, and the journal is not yet installed.
func (c *Collection) cutLocked(id string, journalFrame bool) (*Delta, error) {
	if c.agg.Collected() == 0 {
		return nil, nil
	}
	merged, err := c.agg.Merged()
	if err != nil {
		return nil, err
	}
	state, err := merged.MarshalState()
	if err != nil {
		return nil, err
	}
	d := &Delta{
		Version:    DeltaVersion,
		Collection: c.name,
		ID:         id,
		Config:     c.cfg.Config,
		Reports:    merged.Collected(),
		Enc:        EncBinary,
		State:      state,
	}
	if p, ok := merged.(task.Phased); ok {
		d.Round, d.Done = p.Round(), p.Done()
	}
	if journalFrame && c.journal != nil {
		if err := c.journal.appendSync(journalRecord{Kind: kindFlush, ID: id, Reports: d.Reports, Round: d.Round}); err != nil {
			return nil, err
		}
	}
	if err := c.agg.Drain(); err != nil {
		return nil, err
	}
	return d, nil
}

// adoptLocked applies an upstream frontier and journals the adopt
// frame; the caller holds walMu exclusively. Like advances, a failed
// append leaves the adoption applied in memory but the journal broken
// (no later report acknowledged until a checkpoint resets it); a relay
// that crashes in between simply re-syncs with the upstream frontier
// at boot.
func (c *Collection) adoptLocked(frontier json.RawMessage) error {
	if err := c.agg.AdoptFrontier(frontier); err != nil {
		return err
	}
	if c.journal != nil {
		if err := c.journal.appendSync(journalRecord{Kind: kindAdopt, Frontier: frontier, Round: c.agg.Round()}); err != nil {
			log.Printf("core: journaling frontier adoption of collection %q at round %d: %v", c.name, c.agg.Round(), err)
		}
	}
	return nil
}
