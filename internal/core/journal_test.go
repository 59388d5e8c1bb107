package core

// Unit coverage for the write-ahead journal's building blocks: frame
// encode/decode (and its rejection of every corruption shape), the
// segment lifecycle (append → rotate → dropBefore), the broken-journal
// latch, and the bounded dedup memory. The crash sweep in
// crash_test.go exercises the same pieces end to end.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fsio"
	"repro/internal/ldprand"
	"repro/internal/task"
	"repro/internal/task/cmstask"
	"repro/internal/task/freqtask"
	"repro/internal/task/hhtask"
	"repro/internal/task/meantask"
)

func TestFrameRoundTrip(t *testing.T) {
	client, err := NewClient(MechanismGRR, PrivacyParams{Epsilon: 2, Domain: 8}, ldprand.NewSplitMix64(5))
	if err != nil {
		t.Fatal(err)
	}
	bin, err := client.ReportBinary(3)
	if err != nil {
		t.Fatal(err)
	}
	rec := journalRecord{Kind: kindBatch, ID: "b-1", Bins: [][]byte{bin}}
	buf := frameBytes(t, rec)
	got, n, err := nextFrame(buf)
	if err != nil {
		t.Fatalf("nextFrame rejected a sound frame: %v", err)
	}
	if n != len(buf) {
		t.Fatalf("frame size = %d, want %d", n, len(buf))
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("decoded record = %+v, want %+v", got, rec)
	}
	// The payload is in the frame as the client sent it, and the
	// decoded record points into the frame rather than at a copy.
	if at := bytes.Index(buf, rec.Bins[0]); at < 0 || &got.Bins[0][0] != &buf[at] {
		t.Fatalf("payload %q is not stored verbatim and aliased (found at %d)", rec.Bins[0], at)
	}
}

// TestNextFrameRejectsCorruption pins the two ways a frame is not a
// record. Torn — nothing whole and checksummed is there — reports
// errTornFrame and no size: it was never acknowledged and replay cuts
// it. Sound but unreadable — the checksum holds, so it was written
// whole, but the payload is nothing this build decodes — reports the
// frame's size and another error: replay sets it aside first.
func TestNextFrameRejectsCorruption(t *testing.T) {
	sound := frameBytes(t, journalRecord{Kind: kindAdvance, Round: 2})
	flipped := bytes.Clone(sound)
	flipped[8] ^= 0x40 // a bit of the payload rots
	badLen := bytes.Clone(sound)
	binary.LittleEndian.PutUint32(badLen[0:4], uint32(maxFrameBytes+1))
	jsonBatch := jsonBatchFrame("b-1", rawEnvs(t, []freqtask.Envelope{{Mechanism: MechanismGRR, Value: 3}})...)

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"torn header", sound[:5]},
		{"torn payload", sound[:len(sound)-1]},
		{"flipped payload byte", flipped},
		{"length past the data", badLen},
		{"zero length (a file grown ahead of its data)", make([]byte, 64)},
	} {
		if _, n, err := nextFrame(tc.data); !errors.Is(err, errTornFrame) || n != 0 {
			t.Errorf("%s: nextFrame = (%d bytes, %v), want (0, errTornFrame)", tc.name, n, err)
		}
	}

	payload := sound[8:]
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"junk", []byte("not a record at all")},
		{"unknown kind byte", []byte{0xEE, 0}},
		{"kind byte zero", []byte{0, 0}},
		{"truncated fields", payload[:len(payload)-1]},
		{"trailing byte", append(bytes.Clone(payload), 0)},
		{"key longer than the payload", []byte{kindAdvance, 0x7f, 'x'}},
		{"report count larger than the payload", []byte{kindBatch, 0, 0xff, 0xff, 0xff, 0x0f, 0}},
		{"0x01 batch of JSON envelopes", jsonBatch[8:]},
		{"JSON payload", []byte(`{"kind":"advance","round":3}`)},
		{"JSON, malformed", []byte(`{"kind":"advance",`)},
		{"JSON, merge with a JSON state", []byte(`{"kind":"merge","state":"e30="}`)},
	} {
		data := append(framePayload(tc.payload), sound...)
		_, n, err := nextFrame(data)
		if err == nil || errors.Is(err, errTornFrame) || n != 8+len(tc.payload) {
			t.Errorf("%s: nextFrame = (%d bytes, %v), want the frame's %d bytes and a refusal", tc.name, n, err, 8+len(tc.payload))
		}
	}
}

func TestParseFramesStopsAtFirstBadFrame(t *testing.T) {
	var data []byte
	for round := 0; round < 3; round++ {
		data = append(data, frameBytes(t, journalRecord{Kind: kindAdvance, Round: round})...)
	}
	goodEnd := len(data)
	torn := frameBytes(t, journalRecord{Kind: kindBatch, ID: "tail"})
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

// TestFrameSizeBound is the arithmetic maxFrameBytes and the request
// caps rest on, as a test instead of a worst-case comment: whatever a
// record carries, its frame is those bytes plus at most five per blob,
// the idempotency key, and 48 for everything else (the 8-byte header,
// the kind byte, three length or count prefixes, two varint fields).
// So no body inside maxBatchBytes frames past maxFrameBytes.
func TestFrameSizeBound(t *testing.T) {
	id := strings.Repeat("k", maxBatchIDBytes)
	blobs := func(sizes ...int) [][]byte {
		out := make([][]byte, len(sizes))
		for i, n := range sizes {
			out[i] = bytes.Repeat([]byte{'<'}, n)
		}
		return out
	}
	many := make([]int, 7500)
	for i := range many {
		many[i] = 1024
	}
	for name, rec := range map[string]journalRecord{
		"batch, empty":                 {Kind: kindBatch},
		"batch, mixed sizes":           {Kind: kindBatch, ID: id, Bins: blobs(0, 1, 127, 128, 16383, 16384, 1<<21)},
		"batch, one 8 MiB of '<'":      {Kind: kindBatch, ID: id, Bins: blobs(maxBatchBytes)},
		"batch binary, empty payloads": {Kind: kindBatch, ID: id, Bins: blobs(make([]int, 1000)...)},
		"batch binary, 7500 x 1 KiB":   {Kind: kindBatch, ID: id, Bins: blobs(many...)},
		"advance":                      {Kind: kindAdvance, Round: math.MaxInt},
		"merge":                        {Kind: kindMerge, ID: id, State: blobs(maxBatchBytes)[0], Reports: math.MaxInt},
		"flush":                        {Kind: kindFlush, ID: id, Reports: math.MaxInt, Round: math.MaxInt},
		"adopt":                        {Kind: kindAdopt, Round: math.MaxInt, Frontier: blobs(1 << 20)[0]},
	} {
		carried, n := len(rec.State)+len(rec.Frontier), len(rec.Bins)
		for _, bin := range rec.Bins {
			carried += len(bin)
		}
		if rec.State != nil || rec.Frontier != nil {
			n++
		}
		buf := frameBytes(t, rec)
		if bound := carried + 5*n + len(rec.ID) + 48; len(buf) > bound {
			t.Errorf("%s: frame is %d bytes, bound %d (%d carried in %d blobs)", name, len(buf), bound, carried, n)
		}
		if got, size, err := nextFrame(buf); err != nil || size != len(buf) || !sameRecord(got, rec) {
			t.Errorf("%s: frame does not read back (%d of %d bytes, %v)", name, size, len(buf), err)
		}
	}

	// A JSON batch, translated, is journaled as a binary frame. The
	// most a body can grow is 13 bytes for every 3: a `{}` of hh
	// becomes a 12-byte payload plus its length byte, and no other
	// envelope of any task grows more (an SHE vector of bare zeros, a
	// float spelled in two bytes, grows fourfold). Translation and
	// framing are linear in the body, so a 1 MiB body pins the ratio and
	// the ratio pins the 8 MiB body cap under maxFrameBytes.
	const body = maxBatchBytes / 8
	if 13*maxBatchBytes/3+len(id)+48 > maxFrameBytes {
		t.Errorf("an 8 MiB body may frame to %d bytes, past the %d-byte limit", 13*maxBatchBytes/3+len(id)+48, maxFrameBytes)
	}
	zeros := `{"reals":[0` + strings.Repeat(",0", (body-len(`[{"reals":[0]}]`))/2) + `]}`
	for _, tc := range []struct {
		name string
		cfg  task.Config
		env  string
	}{
		{"freq OLH {}", task.Config{Mechanism: MechanismOLH, Epsilon: 1, Domain: 16}, `{}`},
		{"freq SHE zeros", task.Config{Mechanism: freqtask.MechanismSHE, Epsilon: 1, Domain: 16}, zeros},
		{"sketch CMS {}", task.Config{Task: task.TypeSketch, Mechanism: cmstask.MechanismCMS, Epsilon: 2, Width: 32, Hashes: 4}, `{}`},
		{"sketch HCMS {}", task.Config{Task: task.TypeSketch, Mechanism: cmstask.MechanismHCMS, Epsilon: 2, Width: 32, Hashes: 4}, `{}`},
		{"mean Harmony {}", task.Config{Task: task.TypeMean, Mechanism: meantask.MechanismHarmony, Epsilon: 1, Dim: 2}, `{}`},
		{"hh {}", task.Config{Task: task.TypeHH, Mechanism: hhtask.MechanismPEM, Epsilon: 2, Bits: 8, Levels: 4, K: 3}, `{}`},
	} {
		agg, err := NewShardedAggregator(tc.cfg, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// n envelopes and their commas fill the body's brackets.
		n := (body - 1) / (len(tc.env) + 1)
		tr := agg.translate(slices.Repeat([]json.RawMessage{json.RawMessage(tc.env)}, n))
		if len(tr.bins[0]) == 0 {
			t.Fatalf("%s: envelope does not translate", tc.name)
		}
		w, err := frame(journalRecord{Kind: kindBatch, ID: id, Bins: tr.bins})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := w.Len() - 8; got > 13*body/3+len(id)+48 {
			t.Errorf("%s: a %d-byte body of %d envelopes frames to %d bytes (%.2f×)", tc.name, body, n, got, float64(got)/body)
		}
		w.Release()
		tr.w.Release()
	}
}

// TestJournalConcurrentAppend is the test behind appendWith's "one
// Write per frame, frames never interleave": frames are encoded
// outside journal.mu, so eight goroutines append distinct records of
// assorted sizes to one journal while a ninth keeps rotating it, and
// afterwards every segment must parse whole and the records read back
// must be exactly the ones appended, each once.
func TestJournalConcurrentAppend(t *testing.T) {
	const writers, each = 8, 40
	record := func(g, i int) journalRecord {
		id := fmt.Sprintf("w%d-%03d", g, i)
		if i%5 == 4 {
			return journalRecord{Kind: kindFlush, ID: id, Reports: g, Round: i}
		}
		// The payload spells the key, at a length that differs per record.
		return journalRecord{Kind: kindBatch, ID: id, Bins: [][]byte{bytes.Repeat([]byte(id), 1+(g*each+i)*7%400)}}
	}
	dir := t.TempDir()
	j := newJournal(fsio.OS, dir, "col", 1, JournalSyncNone)
	var appenders sync.WaitGroup
	for g := 0; g < writers; g++ {
		appenders.Add(1)
		go func() {
			defer appenders.Done()
			for i := 0; i < each; i++ {
				if err := j.append(record(g, i)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	stop, rotated := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(rotated)
		for {
			select {
			case <-stop:
				return
			default:
				j.rotate()
				runtime.Gosched()
			}
		}
	}()
	appenders.Wait()
	close(stop)
	<-rotated
	j.close()

	segs, err := journalSegments(fsio.OS, dir, "col")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]journalRecord)
	var total int64
	for _, s := range segs {
		data, err := os.ReadFile(s.path)
		if err != nil {
			t.Fatal(err)
		}
		recs, goodLen := parseFrames(data)
		if goodLen != len(data) {
			t.Fatalf("%s reads only to byte %d of %d: frames interleaved or torn", filepath.Base(s.path), goodLen, len(data))
		}
		for _, rec := range recs {
			if _, dup := seen[rec.ID]; dup {
				t.Errorf("record %s was written twice", rec.ID)
			}
			seen[rec.ID] = rec
		}
		total += int64(len(data))
	}
	for g := 0; g < writers; g++ {
		for i := 0; i < each; i++ {
			want := record(g, i)
			if got, ok := seen[want.ID]; !ok || !sameRecord(got, want) {
				t.Errorf("record %s read back as %+v (found %v)", want.ID, got, ok)
			}
		}
	}
	if frames, lag := j.lag(); len(seen) != writers*each || frames != writers*each || lag != total {
		t.Errorf("%d records in %d bytes on disk; lag says %d frames, %d bytes; want %d records", len(seen), total, frames, lag, writers*each)
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
		if err := j.append(journalRecord{Kind: kindBatch, ID: fmt.Sprintf("a-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if frames, _ := j.lag(); frames != 2 {
		t.Fatalf("lag after 2 appends = %d frames, want 2", frames)
	}
	if gen := j.rotate(); gen != 2 {
		t.Fatalf("rotate returned generation %d, want 2", gen)
	}
	if err := j.append(journalRecord{Kind: kindBatch, ID: "b-0"}); err != nil {
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
	if err := j.append(journalRecord{Kind: kindBatch, ID: "x"}); !errors.Is(err, ErrJournal) {
		t.Fatalf("append over failed open = %v, want ErrJournal", err)
	}
	if !j.isBroken() {
		t.Fatal("journal not broken after failed append")
	}
	fault.Disarm()
	ops := fault.Ops()
	if err := j.append(journalRecord{Kind: kindBatch, ID: "y"}); !errors.Is(err, ErrJournal) {
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
	if err := j.append(journalRecord{Kind: kindBatch, ID: "z"}); err != nil {
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
