package core

// Unit coverage for the write-ahead journal's building blocks: frame
// encode/decode (and its rejection of every corruption shape), the
// segment lifecycle (append → rotate → dropBefore), the broken-journal
// latch, and the bounded dedup memory. The crash sweep in
// crash_test.go exercises the same pieces end to end.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fsio"
	"repro/internal/task/freqtask"
)

func TestFrameRoundTrip(t *testing.T) {
	rec := journalRecord{Kind: recordBatch, ID: "b-1", Envs: rawEnvs(t, []freqtask.Envelope{{Mechanism: MechanismGRR, Value: 3}})}
	buf, err := frame(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, n, ok := nextFrame(buf)
	if !ok {
		t.Fatal("nextFrame rejected a sound frame")
	}
	if n != len(buf) {
		t.Fatalf("frame size = %d, want %d", n, len(buf))
	}
	if got.Kind != rec.Kind || got.ID != rec.ID || len(got.Envs) != 1 {
		t.Fatalf("decoded record = %+v, want %+v", got, rec)
	}
}

func TestNextFrameRejectsCorruption(t *testing.T) {
	sound, err := frame(journalRecord{Kind: recordAdvance, Round: 2})
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), sound...)
	flipped[10] ^= 0x40 // a bit of the payload rots

	badLen := append([]byte(nil), sound...)
	binary.LittleEndian.PutUint32(badLen[0:4], uint32(maxFrameBytes+1))

	// Correctly framed and checksummed bytes that are not a JSON
	// record: framing is intact but the content is garbage.
	junk := []byte("not json at all")
	framedJunk := make([]byte, 8+len(junk))
	binary.LittleEndian.PutUint32(framedJunk[0:4], uint32(len(junk)))
	binary.LittleEndian.PutUint32(framedJunk[4:8], crc32.Checksum(junk, crcTable))
	copy(framedJunk[8:], junk)

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"torn header", sound[:5]},
		{"torn payload", sound[:len(sound)-3]},
		{"flipped payload byte", flipped},
		{"insane length", badLen},
		{"checksummed junk", framedJunk},
	}
	for _, tc := range cases {
		if _, _, ok := nextFrame(tc.data); ok {
			t.Errorf("%s: nextFrame accepted corrupt data", tc.name)
		}
	}
}

func TestParseFramesStopsAtFirstBadFrame(t *testing.T) {
	var data []byte
	for round := 0; round < 3; round++ {
		buf, err := frame(journalRecord{Kind: recordAdvance, Round: round})
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, buf...)
	}
	goodEnd := len(data)
	torn, err := frame(journalRecord{Kind: recordBatch, ID: "tail"})
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, torn[:len(torn)/2]...) // crash mid-append

	recs, goodLen := parseFrames(data)
	if len(recs) != 3 {
		t.Fatalf("parsed %d records, want 3", len(recs))
	}
	if goodLen != goodEnd {
		t.Fatalf("goodLen = %d, want %d (offset of the torn frame)", goodLen, goodEnd)
	}
	for i, rec := range recs {
		if rec.Round != i {
			t.Fatalf("record %d replayed round %d", i, rec.Round)
		}
	}
}

// TestJournalSegmentLifecycle walks one collection's journal through
// the cycle a live server drives: appends land in the active segment,
// a rotation moves later appends to the next generation, and
// dropBefore removes exactly the superseded files.
func TestJournalSegmentLifecycle(t *testing.T) {
	dir := t.TempDir()
	j := newJournal(fsio.OS, dir, "col", 1, JournalSyncEvery)
	for i := 0; i < 2; i++ {
		if err := j.append(journalRecord{Kind: recordBatch, ID: fmt.Sprintf("a-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if frames, _ := j.lag(); frames != 2 {
		t.Fatalf("lag after 2 appends = %d frames, want 2", frames)
	}
	if gen := j.rotate(); gen != 2 {
		t.Fatalf("rotate returned generation %d, want 2", gen)
	}
	if err := j.append(journalRecord{Kind: recordBatch, ID: "b-0"}); err != nil {
		t.Fatal(err)
	}

	segs, err := journalSegments(fsio.OS, dir, "col")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0].gen != 1 || segs[1].gen != 2 {
		t.Fatalf("segments = %+v, want generations 1 and 2", segs)
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if recs, goodLen := parseFrames(data); len(recs) != 2 || goodLen != len(data) {
		t.Fatalf("segment 1 parsed to %d records (%d/%d bytes)", len(recs), goodLen, len(data))
	}

	if err := j.dropBefore(2); err != nil {
		t.Fatal(err)
	}
	segs, err = journalSegments(fsio.OS, dir, "col")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].gen != 2 {
		t.Fatalf("segments after dropBefore(2) = %+v, want only generation 2", segs)
	}
	if frames, _ := j.lag(); frames != 1 {
		t.Fatalf("lag after drop = %d frames, want 1 (the post-rotation append)", frames)
	}
}

// TestJournalBrokenLatch: one failed append latches the journal
// broken — every later append fails without touching the disk — and a
// checkpoint's dropBefore clears the latch.
func TestJournalBrokenLatch(t *testing.T) {
	dir := t.TempDir()
	fault := fsio.NewFault(fsio.OS)
	j := newJournal(fault, dir, "col", 1, JournalSyncEvery)

	fault.FailAt(0) // the segment-creating open fails
	if err := j.append(journalRecord{Kind: recordBatch, ID: "x"}); !errors.Is(err, ErrJournal) {
		t.Fatalf("append over failed open = %v, want ErrJournal", err)
	}
	if !j.isBroken() {
		t.Fatal("journal not broken after failed append")
	}
	fault.Disarm()
	ops := fault.Ops()
	if err := j.append(journalRecord{Kind: recordBatch, ID: "y"}); !errors.Is(err, ErrJournal) {
		t.Fatalf("append on broken journal = %v, want ErrJournal", err)
	}
	if fault.Ops() != ops {
		t.Fatal("broken journal still issued filesystem operations")
	}

	newGen := j.rotate()
	if err := j.dropBefore(newGen); err != nil {
		t.Fatal(err)
	}
	if j.isBroken() {
		t.Fatal("dropBefore did not clear the broken latch")
	}
	if err := j.append(journalRecord{Kind: recordBatch, ID: "z"}); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	seg := journalSegPath(dir, "col", newGen)
	if _, err := os.Stat(seg); err != nil {
		t.Fatalf("recovered append did not reach segment %s: %v", filepath.Base(seg), err)
	}
}

func TestJournalSegmentsIgnoresForeignSuffixes(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{
		"col.journal.000001",
		"col.journal.000003",
		"col.journal.000002.corrupt", // quarantined: not a live segment
		"col.journal.xyz",            // not a generation
	} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := journalSegments(fsio.OS, dir, "col")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0].gen != 1 || segs[1].gen != 3 {
		t.Fatalf("segments = %+v, want generations 1 and 3 only", segs)
	}
}

func TestDedupLRU(t *testing.T) {
	d := newDedupLRU()

	if _, state := d.claim("a"); state != dedupNew {
		t.Fatalf("first claim = %v, want dedupNew", state)
	}
	// The placeholder fences a concurrent duplicate.
	if _, state := d.claim("a"); state != dedupInflight {
		t.Fatalf("claim of in-flight ID = %v, want dedupInflight", state)
	}
	d.complete(BatchMark{ID: "a", Accepted: 4, Rejected: 1})
	mark, state := d.claim("a")
	if state != dedupDone || mark.Accepted != 4 || mark.Rejected != 1 {
		t.Fatalf("claim after complete = %v/%+v, want dedupDone with the recorded mark", state, mark)
	}

	// Abandon forgets a failed attempt: the retry is new again.
	if _, state := d.claim("b"); state != dedupNew {
		t.Fatal("claim b")
	}
	d.abandon("b")
	if _, state := d.claim("b"); state != dedupNew {
		t.Fatalf("claim after abandon = %v, want dedupNew", state)
	}
	d.abandon("b")

	// marks reports completed entries only, oldest first, and a seeded
	// copy answers retries identically.
	d.complete(BatchMark{ID: "c", Accepted: 2})
	ms := d.marks()
	if len(ms) != 2 || ms[0].ID != "a" || ms[1].ID != "c" {
		t.Fatalf("marks = %+v, want [a c]", ms)
	}
	d2 := newDedupLRU()
	d2.seed(ms)
	if mark, state := d2.claim("a"); state != dedupDone || mark.Accepted != 4 {
		t.Fatalf("seeded claim = %v/%+v, want the original outcome", state, mark)
	}

	// The type locks itself: racing claimants of one ID elect exactly
	// one owner, everyone else is fenced until it completes, and every
	// completed ID is remembered once.
	const ids, claimants = 64, 8
	var owners [ids]atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < claimants; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ids; i++ {
				id := fmt.Sprintf("race-%02d", i)
				switch mark, state := d.claim(id); state {
				case dedupNew:
					owners[i].Add(1)
					d.complete(BatchMark{ID: id, Accepted: i})
				case dedupDone:
					if mark.Accepted != i {
						t.Errorf("%s answered %+v", id, mark)
					}
				}
			}
		}()
	}
	wg.Wait()
	for i := range owners {
		if n := owners[i].Load(); n != 1 {
			t.Errorf("race-%02d was owned %d times", i, n)
		}
	}
	if n := len(d.marks()); n != 2+ids {
		t.Fatalf("%d completed marks after the race, want %d", n, 2+ids)
	}
}

func TestDedupLRUEvictsOldest(t *testing.T) {
	d := newDedupLRU()
	for i := 0; i < maxDedupEntries+10; i++ {
		d.complete(BatchMark{ID: fmt.Sprintf("id-%05d", i), Accepted: i})
	}
	if n := len(d.m); n != maxDedupEntries {
		t.Fatalf("dedup memory holds %d entries, want cap %d", n, maxDedupEntries)
	}
	if _, state := d.claim("id-00000"); state != dedupNew {
		t.Fatalf("oldest ID = %v, want evicted (dedupNew)", state)
	}
	if _, state := d.claim(fmt.Sprintf("id-%05d", maxDedupEntries+9)); state != dedupDone {
		t.Fatalf("newest ID = %v, want dedupDone", state)
	}
}
