package core

// Crash-consistency coverage: the property the journal + checkpoint +
// dedup machinery exists for is that an acknowledged report batch
// survives a crash at ANY moment, exactly once, even when the client
// retries batches the server already acknowledged. The sweep tests
// prove it by brute force — a counting dry run enumerates every
// mutating filesystem operation a workload performs, then the workload
// is re-run once per operation with a crash (clean or torn-write)
// injected there, restarted over the surviving directory, and checked
// against a reference aggregate that saw each batch exactly once.
// Alongside the sweeps: snapshot corruption modes (truncate, bit flip,
// future version) quarantining one collection while the rest restore,
// and the HTTP-level idempotency and health surfaces.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/binenc"
	"repro/internal/fsio"
	"repro/internal/ldprand"
)

const crashCollection = "sweep"

func batchID(i int) string { return fmt.Sprintf("sweep-batch-%02d", i) }

// crashBatches builds the deterministic workload: a fixed sequence of
// report batches, privatized once up front so every run (dry, armed,
// reference) aggregates byte-identical envelopes.
func crashBatches(t testing.TB) [][]json.RawMessage {
	t.Helper()
	cfg := testCfg()
	client, err := NewClient(cfg.Mechanism, cfg.Params(), ldprand.NewSplitMix64(7))
	if err != nil {
		t.Fatal(err)
	}
	src := ldprand.NewSplitMix64(8)
	batches := make([][]json.RawMessage, 6)
	for i := range batches {
		envs := make([]json.RawMessage, 4)
		for k := range envs {
			env, err := client.Report(ldprand.Intn(src, cfg.Domain))
			if err != nil {
				t.Fatal(err)
			}
			envs[k] = mustRaw(t, env)
		}
		batches[i] = envs
	}
	return batches
}

// crashReference aggregates every batch exactly once, memory-only: the
// counts any crash + restart + retry interleaving must reproduce.
// (GRR state is integer counts, so equality is exact, not approximate.)
func crashReference(t *testing.T, batches [][]json.RawMessage) []float64 {
	t.Helper()
	reg := NewCollectionRegistry()
	c, err := reg.Create(crashCollection, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		if _, err := c.IngestBatch(batchID(i), b); err != nil {
			t.Fatal(err)
		}
	}
	return counts(t, c)
}

// ingestWithRetry plays the client's role against the in-process API:
// re-send the same batch under the same idempotency key until it is
// acknowledged, checkpointing between attempts the way the operator's
// checkpoint loop would (a successful checkpoint is what clears a
// broken journal).
func ingestWithRetry(store *Store, reg *CollectionRegistry, c *Collection, id string, b []json.RawMessage) bool {
	for attempt := 0; attempt < 3; attempt++ {
		if _, err := c.IngestBatch(id, b); err == nil {
			return true
		}
		_ = store.Save(reg, c)
	}
	return false
}

// runCrashWorkload drives one fixed scenario over fsys — create a
// persistent collection, checkpoint it, ingest the batches with a
// checkpoint in the middle, checkpoint at the end — and returns which
// batches were acknowledged. Injected failures are expected: a failed
// step simply leaves its batch unacknowledged (or, for a crash, ends
// the useful part of the run with every later operation failing too).
func runCrashWorkload(t testing.TB, fsys fsio.FS, dir string, batches [][]json.RawMessage) map[int]bool {
	t.Helper()
	acked := make(map[int]bool)
	store, err := NewStoreFS(dir, fsys, JournalSyncEvery)
	if err != nil {
		// A transient setup failure is an operator-restart case, not a
		// crash: try once more before giving the scenario up.
		if store, err = NewStoreFS(dir, fsys, JournalSyncEvery); err != nil {
			return acked
		}
	}
	reg := NewCollectionRegistry()
	c, err := reg.Create(crashCollection, testCfg())
	if err != nil {
		t.Fatal(err) // no filesystem involved: never an injected fault
	}
	if err := store.Attach(c); err != nil {
		return acked
	}
	// Nothing is acknowledged before the collection has a durable base
	// snapshot for its journal to replay onto — the same ordering the
	// server's collection-create handler enforces.
	if err := store.Save(reg, c); err != nil {
		if err := store.Save(reg, c); err != nil {
			return acked
		}
	}
	for i, b := range batches {
		if ingestWithRetry(store, reg, c, batchID(i), b) {
			acked[i] = true
		}
		if i == len(batches)/2 {
			_ = store.Save(reg, c)
		}
	}
	_ = store.SaveAll(reg)
	return acked
}

// verifyCrashRecovery restarts over whatever the crash left in dir —
// a fresh store on the real filesystem, Load, journal replay — then
// retries EVERY batch under its original idempotency key, the way a
// client that never saw some acknowledgements would. It asserts the
// two halves of the durability contract: an acknowledged batch is
// already there (the retry answers "replayed", nothing re-aggregated),
// and the final estimates equal the reference that saw each batch
// exactly once.
func verifyCrashRecovery(t *testing.T, dir string, batches [][]json.RawMessage, acked map[int]bool, want []float64) {
	t.Helper()
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	if _, err := store.Load(reg); err != nil {
		t.Fatal(err)
	}
	c, ok := reg.Get(crashCollection)
	if !ok {
		if len(acked) > 0 {
			t.Fatalf("collection lost in the crash but %d batches were acknowledged", len(acked))
		}
		return // crashed before the first checkpoint: nothing was promised
	}
	for i, b := range batches {
		res, err := c.IngestBatch(batchID(i), b)
		if err != nil {
			t.Fatalf("retrying batch %d after restart: %v", i, err)
		}
		if res.Accepted != len(b) {
			t.Fatalf("retry of batch %d accepted %d/%d envelopes", i, res.Accepted, len(b))
		}
		if acked[i] && !res.Replayed {
			t.Fatalf("batch %d was acknowledged before the crash, but the retry re-aggregated it", i)
		}
	}
	if got := counts(t, c); !reflect.DeepEqual(got, want) {
		t.Fatalf("estimates after recovery + retries = %v, want %v", got, want)
	}
}

// TestRestartReplaysJournalWithoutCheckpoint is the plain kill -9
// case: batches acknowledged after the last checkpoint live only in
// the journal, and a restart replays them — estimates match a process
// that never died.
func TestRestartReplaysJournalWithoutCheckpoint(t *testing.T) {
	batches := crashBatches(t)
	want := crashReference(t, batches)
	dir := t.TempDir()

	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	c, err := reg.Create(crashCollection, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Attach(c); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(reg, c); err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		if _, err := c.IngestBatch(batchID(i), b); err != nil {
			t.Fatal(err)
		}
	}
	// No final checkpoint: the process just dies here.

	store2, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := NewCollectionRegistry()
	restored, err := store2.Load(reg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 {
		t.Fatalf("restored %v, want [%s]", restored, crashCollection)
	}
	c2, _ := reg2.Get(crashCollection)
	if got := counts(t, c2); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed estimates = %v, want %v", got, want)
	}
	// A retry of an already-acknowledged batch still deduplicates.
	res, err := c2.IngestBatch(batchID(0), batches[0])
	if err != nil || !res.Replayed {
		t.Fatalf("post-restart retry = %+v, %v; want replayed", res, err)
	}
	// The replayed state must reach the next snapshot: checkpoint,
	// restart again, and the counts still hold with no journal left.
	if err := store2.Save(reg2, c2); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, crashCollection+".journal.*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 {
		t.Fatalf("journal segments survived the checkpoint: %v", segs)
	}
	reg3 := NewCollectionRegistry()
	if _, err := store2.Load(reg3); err != nil {
		t.Fatal(err)
	}
	c3, _ := reg3.Get(crashCollection)
	if got := counts(t, c3); !reflect.DeepEqual(got, want) {
		t.Fatalf("estimates after checkpointed restart = %v, want %v", got, want)
	}
}

// TestCrashSweepAckedBatchesSurviveExactlyOnce is the tentpole sweep:
// crash at every mutating filesystem operation of the workload — once
// cleanly, once with a torn write — restart, retry, and require the
// exactly-once property to hold at every single crash point.
func TestCrashSweepAckedBatchesSurviveExactlyOnce(t *testing.T) {
	batches := crashBatches(t)
	want := crashReference(t, batches)

	fault := fsio.NewFault(fsio.OS)
	runCrashWorkload(t, fault, t.TempDir(), batches) // disarmed dry run
	n := fault.Ops()
	if n < 15 {
		t.Fatalf("dry run observed only %d mutating operations; the workload no longer exercises the persistence stack", n)
	}
	for _, torn := range []bool{false, true} {
		for k := 0; k < n; k++ {
			if torn {
				fault.CrashTornAt(k)
			} else {
				fault.CrashAt(k)
			}
			dir := t.TempDir()
			acked := runCrashWorkload(t, fault, dir, batches)
			fault.Disarm()
			t.Logf("crash at op %d/%d (torn=%v): %d/%d batches acked", k, n, torn, len(acked), len(batches))
			verifyCrashRecovery(t, dir, batches, acked, want)
		}
	}
}

// TestTransientFaultSweepAllBatchesLand injects a single ENOSPC-style
// failure at every operation instead of a crash: the process survives,
// so with retries every batch must end up acknowledged and the final
// state must still be exact.
func TestTransientFaultSweepAllBatchesLand(t *testing.T) {
	batches := crashBatches(t)
	want := crashReference(t, batches)

	fault := fsio.NewFault(fsio.OS)
	runCrashWorkload(t, fault, t.TempDir(), batches)
	n := fault.Ops()
	for k := 0; k < n; k++ {
		fault.FailAt(k)
		dir := t.TempDir()
		acked := runCrashWorkload(t, fault, dir, batches)
		fault.Disarm()
		if len(acked) != len(batches) {
			t.Fatalf("transient fault at op %d: only %d/%d batches acknowledged despite retries", k, len(acked), len(batches))
		}
		verifyCrashRecovery(t, dir, batches, acked, want)
	}
}

// TestRestartReplaysSetAsideRefusedFrames pins the difference between
// a tail that was never acknowledged and one that was. A torn final
// frame fails its framing and is cut away, nothing kept. A frame replay
// cannot apply — here a relay's flush frame met by a store started
// without a flush sink — passed its checksum, and so did the batch
// behind it: both were acknowledged, so they move byte for byte to a
// .corrupt file beside the segment before the segment is cut, and
// putting them back under a store that has the sink recovers them. The
// same holds for a frame replay cannot even read: a sound frame whose
// kind byte this build does not know, which is what a rolled-back build
// meets after any format change. (Until PR 20 that frame parsed as
// "not a frame" and was cut with the torn tail, taking the batch
// behind it along.)
func TestRestartReplaysSetAsideRefusedFrames(t *testing.T) {
	batches := crashBatches(t)
	// journaled builds a state dir whose one segment holds what write
	// appended after the creation checkpoint, and returns the segment.
	journaled := func(write func(c *Collection)) (dir, seg string) {
		dir = t.TempDir()
		store, err := newStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		reg := NewCollectionRegistry()
		c, err := reg.Create(crashCollection, testCfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Attach(c); err != nil {
			t.Fatal(err)
		}
		if err := store.Save(reg, c); err != nil {
			t.Fatal(err)
		}
		write(c)
		c.CloseJournal()
		segs, err := journalSegments(store.fs, dir, crashCollection)
		if err != nil || len(segs) != 1 {
			t.Fatalf("segments %v, %v", segs, err)
		}
		return dir, segs[0].path
	}
	load := func(dir string, sink FlushSink) *Collection {
		store, err := newStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if sink != nil {
			store.SetFlushSink(sink)
		}
		reg := NewCollectionRegistry()
		if _, err := store.Load(reg); err != nil {
			t.Fatal(err)
		}
		c, ok := reg.Get(crashCollection)
		if !ok {
			t.Fatalf("collection did not restore; state dir holds %v", dirListing(t, dir))
		}
		c.CloseJournal()
		return c
	}
	ingest := func(c *Collection, i int) {
		if _, err := c.IngestBatch(batchID(i), batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	asides := func(dir string) []string {
		found, err := filepath.Glob(filepath.Join(dir, "*"+corruptExt))
		if err != nil {
			t.Fatal(err)
		}
		return found
	}

	// Torn tail: cut, nothing set aside.
	dir, seg := journaled(func(c *Collection) { ingest(c, 0) })
	sound, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, append(append([]byte(nil), sound...), sound[:len(sound)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := counts(t, load(dir, nil)); !reflect.DeepEqual(got, crashReference(t, batches[:1])) {
		t.Fatalf("torn tail: estimates %v", got)
	}
	if cut, err := os.ReadFile(seg); err != nil || !bytes.Equal(cut, sound) || len(asides(dir)) != 0 {
		t.Fatalf("torn tail: segment is %d bytes, want %d (%v), set aside %v", len(cut), len(sound), err, asides(dir))
	}

	// Refused tail: batch 0, a flush, batch 1 — loaded without a sink.
	dir, seg = journaled(func(c *Collection) {
		ingest(c, 0)
		if _, err := c.CutDelta("cut-1"); err != nil {
			t.Fatal(err)
		}
		ingest(c, 1)
	})
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	c := load(dir, nil)
	if got := counts(t, c); !reflect.DeepEqual(got, crashReference(t, batches[:1])) {
		t.Fatalf("refused tail: estimates %v, want batch 0 alone", got)
	}
	found := asides(dir)
	if len(found) != 1 {
		t.Fatalf("refused tail: set aside %v, want one file (state dir holds %v)", found, dirListing(t, dir))
	}
	tail, err := os.ReadFile(found[0])
	if err != nil {
		t.Fatal(err)
	}
	recs, good := parseFrames(tail)
	if good != len(tail) || len(recs) != 2 || recs[0].Kind != kindFlush || recs[0].ID != "cut-1" || recs[1].Kind != kindBatch || recs[1].ID != batchID(1) {
		t.Fatalf("set-aside file holds %d sound bytes of %d, records %+v; want the flush and batch 1", good, len(tail), recs)
	}
	head, err := os.ReadFile(seg)
	if err != nil || !bytes.Equal(append(head, tail...), whole) {
		t.Fatalf("segment + set-aside file are not the original segment (%v)", err)
	}
	// A second start sees a sound segment and leaves the file alone.
	load(dir, nil)
	if again := asides(dir); len(again) != 1 || again[0] != found[0] {
		t.Fatalf("second start: set aside %v", again)
	}

	// The preserved frames are enough: back behind the segment, under a
	// store that has the sink, they replay to what the relay
	// acknowledged — batch 0 re-cut under the flush's key, batch 1 held.
	if err := os.WriteFile(seg, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	var recut []Delta
	c = load(dir, func(_ string, d Delta) error { recut = append(recut, d); return nil })
	if len(recut) != 1 || recut[0].ID != "cut-1" || recut[0].Reports != len(batches[0]) {
		t.Fatalf("replay with a sink re-cut %+v", recut)
	}
	if got := counts(t, c); !reflect.DeepEqual(got, crashReference(t, batches[1:2])) {
		t.Fatalf("replay with a sink: estimates %v, want batch 1 alone", got)
	}

	// Unreadable tail: batch 0, a sound frame of a kind no build here
	// knows, batch 1. Only the bytes have to survive — a build that
	// knows the kind replays them.
	var cutAt int
	dir, seg = journaled(func(c *Collection) {
		ingest(c, 0)
		_, lag, _ := c.JournalHealth()
		cutAt = int(lag)
		c.journal.mu.Lock()
		_, err := c.journal.f.Write(framePayload([]byte{0xEE, 4, 'n', 'e', 'x', 't', 1, 2, 3}))
		c.journal.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		ingest(c, 1)
	})
	if whole, err = os.ReadFile(seg); err != nil {
		t.Fatal(err)
	}
	logged := captureLog(t)
	if got := counts(t, load(dir, nil)); !reflect.DeepEqual(got, crashReference(t, batches[:1])) {
		t.Fatalf("unreadable tail: estimates %v, want batch 0 alone", got)
	}
	aside := fmt.Sprintf("%s.tail-%d%s", seg, cutAt, corruptExt)
	if found = asides(dir); len(found) != 1 || found[0] != aside {
		t.Fatalf("unreadable tail: set aside %v, want %s (state dir holds %v)", found, filepath.Base(aside), dirListing(t, dir))
	}
	if tail, err = os.ReadFile(aside); err != nil || !bytes.Equal(tail, whole[cutAt:]) {
		t.Fatalf("unreadable tail: set-aside file holds %d bytes, want the segment's last %d (%v)", len(tail), len(whole)-cutAt, err)
	}
	if head, err = os.ReadFile(seg); err != nil || !bytes.Equal(head, whole[:cutAt]) {
		t.Fatalf("unreadable tail: segment holds %d bytes, want the first frame's %d (%v)", len(head), cutAt, err)
	}
	if !strings.Contains(logged.String(), "unknown frame kind 0xee") {
		t.Errorf("log does not name the unknown kind:\n%s", logged)
	}
}

// TestSnapshotCorruptionModes damages one collection's snapshot three
// different ways; each mode must quarantine exactly that collection
// (file set aside under .corrupt, its now-anchorless journal segments
// too) while every other collection restores intact.
func TestSnapshotCorruptionModes(t *testing.T) {
	modes := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit flip", func(t *testing.T, path string) {
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			blob[len(blob)-len(blob)/4] ^= 0x40 // inside the checksummed payload
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"future version", func(t *testing.T, path string) { claimVersion(t, path, 99) }},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := newStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			reg := NewCollectionRegistry()
			for i, name := range []string{"keep-a", "victim", "keep-b"} {
				c, err := reg.Create(name, testCfg())
				if err != nil {
					t.Fatal(err)
				}
				fill(t, c, uint64(300+i), 50)
			}
			if err := store.SaveAll(reg); err != nil {
				t.Fatal(err)
			}
			keepA, _ := reg.Get("keep-a")
			wantA := counts(t, keepA)
			// Leave a live journal segment behind the victim, so the
			// sweep's orphan handling is exercised too.
			victim, _ := reg.Get("victim")
			if err := store.Attach(victim); err != nil {
				t.Fatal(err)
			}
			if _, err := victim.IngestBatch("tail", crashBatches(t)[0]); err != nil {
				t.Fatal(err)
			}

			mode.corrupt(t, filepath.Join(dir, "victim.json"))

			store2, err := newStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			reg2 := NewCollectionRegistry()
			restored, err := store2.Load(reg2)
			if err != nil {
				t.Fatalf("Load must quarantine, not fail: %v", err)
			}
			if want := []string{"keep-a", "keep-b"}; !reflect.DeepEqual(restored, want) {
				t.Fatalf("restored %v, want %v", restored, want)
			}
			if _, ok := reg2.Get("victim"); ok {
				t.Fatal("corrupt collection was restored anyway")
			}
			if _, err := os.Stat(filepath.Join(dir, "victim.json"+corruptExt)); err != nil {
				t.Fatalf("corrupt snapshot not quarantined: %v", err)
			}
			live, err := filepath.Glob(filepath.Join(dir, "victim.journal.*"))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range live {
				if !strings.HasSuffix(p, corruptExt) {
					t.Fatalf("victim journal segment %s still live; want quarantined", filepath.Base(p))
				}
			}
			a2, _ := reg2.Get("keep-a")
			if got := counts(t, a2); !reflect.DeepEqual(got, wantA) {
				t.Fatalf("keep-a estimates after quarantine = %v, want %v", got, wantA)
			}
		})
	}
}

// postBatch POSTs a report batch with an Idempotency-Key and decodes
// the response.
func postBatch(t *testing.T, url, key string, body []byte) (*http.Response, BatchResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br BatchResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
	}
	return resp, br
}

func estimateReports(t *testing.T, base string) int {
	t.Helper()
	var est EstimateResponse
	if err := json.Unmarshal([]byte(getBody(t, base+"/estimate")), &est); err != nil {
		t.Fatal(err)
	}
	return est.Reports
}

// TestBatchIdempotencyOverHTTP: a duplicate Idempotency-Key answers
// the recorded outcome without re-aggregating — including when the
// duplicate arrives after a restart that only had the journal (no
// final checkpoint) to go on.
func TestBatchIdempotencyOverHTTP(t *testing.T) {
	dir := t.TempDir()
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	ts := httptest.NewServer(NewMultiService(reg, store).Handler())
	defer ts.Close()
	if resp := postJSON(t, ts.URL+"/collections", []byte(`{"name":"idem","mechanism":"GRR","epsilon":2,"domain":8}`)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	batch := crashBatches(t)[0]
	body := mustRaw(t, batch)
	url := ts.URL + "/collections/idem/report/batch"

	resp, br := postBatch(t, url, "key-1", body)
	if resp.StatusCode != http.StatusAccepted || br.Accepted != len(batch) || br.Replayed {
		t.Fatalf("first attempt: %d %+v", resp.StatusCode, br)
	}
	resp, br = postBatch(t, url, "key-1", body)
	if resp.StatusCode != http.StatusAccepted || br.Accepted != len(batch) || !br.Replayed {
		t.Fatalf("duplicate: %d %+v; want replayed with the original count", resp.StatusCode, br)
	}
	if got := estimateReports(t, ts.URL+"/collections/idem"); got != len(batch) {
		t.Fatalf("reports after duplicate = %d, want %d", got, len(batch))
	}
	// An overlong key is rejected before it can occupy dedup memory.
	if resp, _ := postBatch(t, url, strings.Repeat("k", maxBatchIDBytes+1), body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overlong key: %d, want 400", resp.StatusCode)
	}

	// Kill the process without a final checkpoint: the journal alone
	// carries both the batch and its idempotency mark.
	ts.Close()
	store2, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := NewCollectionRegistry()
	if _, err := store2.Load(reg2); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(NewMultiService(reg2, store2).Handler())
	defer ts2.Close()
	url2 := ts2.URL + "/collections/idem/report/batch"
	resp, br = postBatch(t, url2, "key-1", body)
	if resp.StatusCode != http.StatusAccepted || !br.Replayed {
		t.Fatalf("duplicate after restart: %d %+v; want replayed", resp.StatusCode, br)
	}
	if got := estimateReports(t, ts2.URL+"/collections/idem"); got != len(batch) {
		t.Fatalf("reports after restart + duplicate = %d, want %d", got, len(batch))
	}
}

func checkHealthz(t *testing.T, base string, wantStatus int, wantVerdict string) HealthResponse {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus || hr.Status != wantVerdict {
		t.Fatalf("healthz = %d %q, want %d %q (%+v)", resp.StatusCode, hr.Status, wantStatus, wantVerdict, hr)
	}
	return hr
}

// TestHealthzDegradesAndRecovers drives /healthz through its three
// trigger states: a broken journal degrades immediately, a checkpoint
// failure streak degrades once it passes the threshold, and a
// successful checkpoint clears both.
func TestHealthzDegradesAndRecovers(t *testing.T) {
	fault := fsio.NewFault(fsio.OS)
	dir := t.TempDir()
	store, err := NewStoreFS(dir, fault, JournalSyncEvery)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	c, err := reg.Create("h", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Attach(c); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(reg, c); err != nil {
		t.Fatal(err)
	}
	svc := NewMultiService(reg, store)
	svc.SetUnhealthyAfter(2)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	batch := crashBatches(t)[0]

	checkHealthz(t, ts.URL, http.StatusOK, "ok")

	// A failed append breaks the journal: degraded at once, however
	// short the checkpoint-failure streak.
	fault.FailAt(0)
	if _, err := c.IngestBatch("hb-0", batch); err == nil {
		t.Fatal("ingest over failed journal append succeeded")
	}
	fault.Disarm()
	hr := checkHealthz(t, ts.URL, http.StatusServiceUnavailable, "degraded")
	if !hr.Collections["h"].JournalBroken {
		t.Fatalf("health = %+v, want JournalBroken", hr.Collections["h"])
	}
	// A successful checkpoint supersedes the broken journal.
	if err := store.Save(reg, c); err != nil {
		t.Fatal(err)
	}
	checkHealthz(t, ts.URL, http.StatusOK, "ok")

	// Two consecutive checkpoint failures cross the threshold.
	for i := 0; i < 2; i++ {
		if _, err := c.IngestBatch(fmt.Sprintf("hb-%d", i+1), batch); err != nil {
			t.Fatal(err)
		}
		fault.FailAt(0) // the checkpoint's temp-file create fails
		if err := store.Save(reg, c); err == nil {
			t.Fatal("checkpoint over injected fault succeeded")
		}
		fault.Disarm()
		if i == 0 {
			hr := checkHealthz(t, ts.URL, http.StatusOK, "ok")
			if h := hr.Collections["h"]; h.SaveFailures != 1 {
				t.Fatalf("after one failure: %+v, want SaveFailures=1", h)
			}
		}
	}
	hr = checkHealthz(t, ts.URL, http.StatusServiceUnavailable, "degraded")
	if h := hr.Collections["h"]; h.SaveFailures != 2 || h.LastSaveError == "" {
		t.Fatalf("after two failures: %+v, want SaveFailures=2 with an error", h)
	}
	if err := store.Save(reg, c); err != nil {
		t.Fatal(err)
	}
	checkHealthz(t, ts.URL, http.StatusOK, "ok")
}

// TestOversizeFrameAckSurvivesRestart: every request body the HTTP caps
// admit is journaled within the frame limit. Both bodies below
// sit at the 8 MiB batch cap and every envelope in them is rejected,
// but a batch is journaled before it is folded. When the payload was
// JSON they inflated inside the frame — the kilobyte binary payloads by
// base64, the envelope full of '<' sixfold by \u003c escaping — past
// the limit of the day: the frame was written, acknowledged, and then
// refused at replay as an insane length, truncating away the
// acknowledged batch journaled behind it (replay now judges a frame by
// its checksum alone, and the limit is append-side). Frames hold the bytes
// received, so the two frames together outgrow the two bodies by no
// more than their headers (TestFrameSizeBound has the arithmetic for
// every kind). The last part pins the other half of the fix: a record
// over the limit is refused at append with nothing written and the
// journal still healthy.
func TestOversizeFrameAckSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	ts := httptest.NewServer(NewMultiService(reg, store).Handler())
	defer ts.Close()
	if resp := postJSON(t, ts.URL+"/collections", []byte(`{"name":"big","mechanism":"GRR","epsilon":2,"domain":8}`)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	url := ts.URL + "/collections/big/report/batch"

	w := binenc.NewWriter()
	w.Uvarint(7500)
	for i := 0; i < 7500; i++ {
		w.Blob(make([]byte, 1024))
	}
	binBody := bytes.Clone(w.Bytes())
	w.Release()
	resp, err := http.Post(url, ContentTypeBinary, bytes.NewReader(binBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(binBody) > maxBatchBytes || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("%d-byte binary batch of junk payloads: %d, want 400 (journaled, every envelope rejected)", len(binBody), resp.StatusCode)
	}
	jsonBody := []byte(`[{"mechanism":"` + strings.Repeat("<", maxBatchBytes-64) + `"}]`)
	if resp, _ := postBatch(t, url, "", jsonBody); len(jsonBody) > maxBatchBytes || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("%d-byte JSON batch of escapable bytes: %d, want 400", len(jsonBody), resp.StatusCode)
	}
	c, _ := reg.Get("big")
	if frames, lag, _ := c.JournalHealth(); frames != 2 || lag > int64(len(binBody)+len(jsonBody)+2*48) {
		t.Fatalf("%d frames of %d bytes journaled for bodies of %d + %d", frames, lag, len(binBody), len(jsonBody))
	}
	batch := crashBatches(t)[0]
	if resp, br := postBatch(t, url, "after-big", mustRaw(t, batch)); resp.StatusCode != http.StatusAccepted || br.Accepted != len(batch) {
		t.Fatalf("batch behind the big frames: %d %+v", resp.StatusCode, br)
	}

	// A record no HTTP body can produce: refused, not written, not latched.
	frames, _, _ := c.JournalHealth()
	_, err = c.IngestBatchBinary("too-big", [][]byte{make([]byte, maxFrameBytes)})
	if !errors.Is(err, errFrameTooLarge) || errors.Is(err, ErrJournal) {
		t.Fatalf("over-limit record: %v, want errFrameTooLarge", err)
	}
	if after, _, broken := c.JournalHealth(); after != frames || broken {
		t.Fatalf("refused record left %d frames (was %d), broken=%v", after, frames, broken)
	}
	if res, err := c.IngestBatchBinary("too-big", nil); err != nil || res.Replayed {
		t.Fatalf("the refused record's key was not released: %+v, %v", res, err)
	}
	rec := httptest.NewRecorder()
	ingestError(rec, err)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit record maps to %d, want 413", rec.Code)
	}

	// Kill without a checkpoint; the journal alone must carry the ack.
	ts.Close()
	c.CloseJournal()
	store2, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := NewCollectionRegistry()
	if _, err := store2.Load(reg2); err != nil {
		t.Fatal(err)
	}
	c2, ok := reg2.Get("big")
	if !ok {
		t.Fatal("collection lost")
	}
	if got := c2.Aggregator().Collected(); got != len(batch) {
		t.Fatalf("restart restored %d reports, want the %d acknowledged behind the big frames", got, len(batch))
	}
	if res, err := c2.IngestBatch("after-big", batch); err != nil || !res.Replayed {
		t.Fatalf("retry of the acknowledged batch after restart: %+v, %v; want replayed", res, err)
	}
}
