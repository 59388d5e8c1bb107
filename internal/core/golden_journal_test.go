package core

// Golden journals: three state directories holding the same traffic
// script — JSON and binary batches, JSON and binary single reports, a
// merge and a flush on a freq collection; batches, a single report, an
// advance, a merge, a flush and an adopt on a phased hh collection.
//
// testdata/golden_journal_v3 is the script written by this build,
// where every batch — JSON clients' included — is journaled as binary
// payloads. It pins the writer: the live ingest path journals exactly
// those bytes and every record re-frames to the bytes it was read
// from. It is the one replayed fixture: its replay reaches the state,
// dedup marks and re-cut deltas in the replayed.* files beside it.
//
// testdata/golden_journal (written by the build of commit 42ca3c4,
// frame payloads as JSON objects) and testdata/golden_journal_v2
// (builds up to commit e14390b: binary payloads, JSON reports
// journaled as received in 0x01 batch frames) are frozen on the
// refusal side: this build reads neither format, and sets their frames
// aside whole (TestLegacyFramesSetAside).
//
// LDP_UPDATE_GOLDEN=1 go test -run TestGoldenJournal ./internal/core/
// rewrites golden_journal_v3's segments and snapshots (never its
// replayed.* files, nor anything else) from the running build;
// regenerate it only in a change that means to move the format.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/ldprand"
	"repro/internal/task/freqtask"
	"repro/internal/task/hhtask"
)

const goldenJournalV3Dir = "testdata/golden_journal_v3" // binary payloads, binary batches only, written by this build

// goldenFreqReports privatizes n values in both wire forms from one
// seed (the two clients consume identical randomness).
func goldenFreqReports(t *testing.T, seed uint64, n int) ([]json.RawMessage, [][]byte) {
	t.Helper()
	cfg := testCfg()
	cj, err := NewClient(cfg.Mechanism, cfg.Params(), ldprand.NewSplitMix64(seed))
	if err != nil {
		t.Fatal(err)
	}
	cb, err := NewClient(cfg.Mechanism, cfg.Params(), ldprand.NewSplitMix64(seed))
	if err != nil {
		t.Fatal(err)
	}
	envs, bins := make([]json.RawMessage, n), make([][]byte, n)
	for i := range envs {
		env, err := cj.Report(i % cfg.Domain)
		if err != nil {
			t.Fatal(err)
		}
		envs[i] = mustRaw(t, env)
		if bins[i], err = cb.ReportBinary(i % cfg.Domain); err != nil {
			t.Fatal(err)
		}
	}
	return envs, bins
}

func goldenHHReports(t *testing.T, seed uint64, round, n int) []json.RawMessage {
	t.Helper()
	client, err := hhtask.NewClient(2, 8, 4, ldprand.NewSplitMix64(seed))
	if err != nil {
		t.Fatal(err)
	}
	src := ldprand.NewSplitMix64(seed + 1)
	envs := make([]json.RawMessage, n)
	for i := range envs {
		if envs[i], err = client.Report(plantedValue(src), round); err != nil {
			t.Fatal(err)
		}
	}
	return envs
}

// goldenScript drives the fixed traffic script against a fresh store
// in dir. Only the empty creation checkpoints are written, so every
// frame stays in the journal.
func goldenScript(t *testing.T, dir string) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	store, err := newStore(dir)
	must(err)
	reg := NewCollectionRegistry()
	create := func(name string, cfg CollectionConfig) *Collection {
		c, err := reg.Create(name, cfg)
		must(err)
		must(store.Attach(c))
		must(store.Save(reg, c))
		return c
	}
	peers := NewCollectionRegistry() // memory-only relay stand-ins the merge deltas are cut from

	// Frequency collection: every report encoding, a merge and a flush.
	fc := create("gfreq", testCfg())
	envs, bins := goldenFreqReports(t, 101, 12)
	bad := mustRaw(t, freqtask.Envelope{Mechanism: "<GRR&>", Value: 1}) // rejected; a JSON payload HTML-escaped it, a binary one holds its name as sent
	res, err := fc.IngestBatch("g-json", append(append([]json.RawMessage(nil), envs[:4]...), bad))
	must(err)
	if res.Accepted != 4 || res.Rejected != 1 {
		t.Fatalf("g-json: %+v", res)
	}
	_, err = fc.IngestBatchBinary("g-bin", bins[4:8])
	must(err)
	_, err = fc.IngestBatch("", envs[8:9]) // what POST /report journals: a batch of one, no key
	must(err)
	_, err = fc.IngestBatchBinary("", bins[9:10])
	must(err)
	fp, err := peers.Create("gfreq", testCfg())
	must(err)
	peerEnvs, _ := goldenFreqReports(t, 103, 5)
	_, err = fp.IngestBatch("", peerEnvs)
	must(err)
	fd, err := fp.CutDelta("g-merge")
	must(err)
	_, err = fc.IngestMerge(*fd)
	must(err)
	_, err = fc.CutDelta("g-flush")
	must(err)
	_, err = fc.IngestBatch("g-json-2", envs[10:12])
	must(err)

	// Phased collection: rounds, a same-round merge, a cut-and-adopt.
	hc := create("ghh", hhCfg(2, 0))
	hp, err := peers.Create("ghh", hhCfg(2, 0))
	must(err)
	r0 := goldenHHReports(t, 201, 0, 11)
	stale := goldenHHReports(t, 203, 3, 1)[0]
	res, err = hc.IngestBatch("h-r0", append(append([]json.RawMessage(nil), r0[:10]...), stale))
	must(err)
	if res.Accepted != 10 || res.Rejected != 1 {
		t.Fatalf("h-r0: %+v", res)
	}
	_, err = hc.IngestBatch("", r0[10:11])
	must(err)
	_, err = hp.IngestBatch("", r0) // same round-0 reports, so both sides keep the same survivors
	must(err)
	must(hc.AdvanceExpecting(0))
	must(hp.AdvanceExpecting(0))
	_, err = hc.IngestBatch("h-r1", goldenHHReports(t, 205, 1, 6))
	must(err)
	_, err = hp.IngestBatch("", goldenHHReports(t, 207, 1, 5))
	must(err)
	hd, err := hp.CutDelta("h-merge")
	must(err)
	_, err = hc.IngestMerge(*hd)
	must(err)
	frontier, err := hc.Aggregator().Frontier()
	must(err)
	_, err = hc.CutAndAdopt("h-flush", frontier)
	must(err)
	_, err = hc.IngestBatch("h-r1b", goldenHHReports(t, 209, 1, 4))
	must(err)

	for _, c := range reg.Collections() {
		c.CloseJournal()
	}
}

// goldenReplay restarts over dir and returns what the replay produced,
// keyed by fixture file name: each collection's merged state and dedup
// marks, and every delta a flush frame re-cut into the sink.
func goldenReplay(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.SetFlushSink(func(collection string, d Delta) error {
		blob, err := EncodeDeltaBinary(d)
		out["replayed."+collection+"."+d.ID+".delta"] = blob
		return err
	})
	reg := NewCollectionRegistry()
	if _, err := store.Load(reg); err != nil {
		t.Fatal(err)
	}
	for _, c := range reg.Collections() {
		state, err := c.Aggregator().MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		out["replayed."+c.Name()+".state"] = state
		out["replayed."+c.Name()+".marks"] = mustRaw(t, c.dedup.marks())
		c.CloseJournal()
	}
	return out
}

// stateDirFiles reads the snapshots and journal segments of a state
// directory.
func stateDirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "replayed.") {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = blob
	}
	return files
}

func sortedKeys(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestGoldenJournal(t *testing.T) {
	live := t.TempDir()
	goldenScript(t, live)
	liveFiles := stateDirFiles(t, live)

	if os.Getenv("LDP_UPDATE_GOLDEN") != "" {
		for name := range stateDirFiles(t, goldenJournalV3Dir) {
			if err := os.Remove(filepath.Join(goldenJournalV3Dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		for name, blob := range liveFiles {
			if err := os.WriteFile(filepath.Join(goldenJournalV3Dir, name), blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote %s", goldenJournalV3Dir)
		return
	}

	// The live path journals (and checkpoints) exactly the v3 fixture's
	// bytes, its segments read whole, and its records re-frame to the
	// bytes they were read from.
	v3 := stateDirFiles(t, goldenJournalV3Dir)
	if got, want := sortedKeys(liveFiles), sortedKeys(v3); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("state dir holds %v, fixture %v", got, want)
	}
	kinds := make(map[byte]bool)
	for name, want := range v3 {
		if !bytes.Equal(liveFiles[name], want) {
			t.Errorf("%s: live path wrote\n%q\nfixture\n%q", name, liveFiles[name], want)
		}
		if !strings.Contains(name, ".journal.") {
			continue
		}
		recs, good := parseFrames(want)
		if good != len(want) {
			t.Errorf("%s: frame at byte %d of %d does not read", name, good, len(want))
		}
		var again []byte
		for _, rec := range recs {
			kinds[rec.Kind] = true
			again = append(again, frameBytes(t, rec)...)
		}
		if !bytes.Equal(again, want) {
			t.Errorf("%s: records re-encode to\n%q\nfixture\n%q", name, again, want)
		}
	}
	for _, kind := range []byte{kindBatch, kindAdvance, kindMerge, kindFlush, kindAdopt} {
		if !kinds[kind] {
			t.Errorf("%s holds no frame of kind 0x%02x", goldenJournalV3Dir, kind)
		}
	}

	// Replaying it reaches the committed states, dedup marks and re-cut
	// deltas.
	want := make(map[string][]byte)
	entries, err := os.ReadDir(goldenJournalV3Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "replayed.") {
			continue
		}
		if want[e.Name()], err = os.ReadFile(filepath.Join(goldenJournalV3Dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	if len(want) != 6 {
		t.Fatalf("fixture holds replay outputs %v, want 6", sortedKeys(want))
	}
	dir := t.TempDir()
	for name, blob := range v3 {
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	replayed := goldenReplay(t, dir)
	if len(replayed) != len(want) {
		t.Errorf("replay produced %v, want %v", sortedKeys(replayed), sortedKeys(want))
	}
	for name, blob := range want {
		if got, ok := replayed[name]; !ok || !bytes.Equal(got, blob) {
			t.Errorf("%s: replay produced\n%q\ncommitted\n%q", name, got, blob)
		}
	}
}

// TestLegacyFramesSetAside pins what happens to a journal frame in a
// format this build does not read. Each row is a state directory whose
// segments begin with one:
//   - legacy_merge, by the build of commit 5a353ae: a JSON payload, a
//     merge frame carrying a JSON delta state;
//   - golden_journal: JSON payloads of every kind;
//   - golden_journal_v2: 0x01 batches of JSON envelopes;
//   - a JSON payload longer than maxFrameBytes — as `<` escaping could
//     make one — with an advance frame behind it.
//
// Such a frame is sound — its checksum holds, so it was acknowledged —
// and replay refuses it, never rewrites it: every collection serves
// exactly its snapshot's state, no idempotency key is recorded, the
// frame and everything behind it move, byte for byte, to a .corrupt
// file beside the segment, and the log names the format and the build
// that replays it. The set-aside frames survive a checkpoint, but the
// checkpoint records a journal generation above the segment's and
// deletes it, so frames put back after one are dropped unread: the
// README's upgrade recipe holds only before this build checkpoints.
func TestLegacyFramesSetAside(t *testing.T) {
	oversized := []byte(`{"kind":"batch","envs":["`)
	oversized = append(oversized, bytes.Repeat([]byte(`\u003c`), maxFrameBytes/6)...)
	oversized = append(oversized, `"]}`...)
	if len(oversized) <= maxFrameBytes {
		t.Fatalf("oversized payload is %d bytes, within the %d-byte limit", len(oversized), maxFrameBytes)
	}
	for _, tc := range []struct {
		name   string
		files  map[string][]byte
		format string
	}{
		{"legacy_merge", stateDirFiles(t, "testdata/legacy_merge"), "a JSON frame payload"},
		{"golden_journal", stateDirFiles(t, "testdata/golden_journal"), "a JSON frame payload"},
		{"golden_journal_v2", stateDirFiles(t, "testdata/golden_journal_v2"), "a 0x01 batch of JSON report envelopes"},
		{"oversized JSON payload", map[string][]byte{
			"mergelegacy.json":           fixtureFile(t, "core/testdata/legacy_merge/mergelegacy.json"),
			"mergelegacy.journal.000002": append(framePayload(oversized), frameBytes(t, journalRecord{Kind: kindAdvance})...),
		}, "a JSON frame payload"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			logged := captureLog(t)
			collections := 0
			for name := range tc.files {
				if strings.HasSuffix(name, snapshotExt) {
					collections++
				}
			}
			dir, _, reg := loadFixtureDir(t, tc.files, collections)
			asides := make(map[string]string) // set-aside file → its segment
			for name, seg := range tc.files {
				if !strings.Contains(name, ".journal.") {
					continue
				}
				// The segment's first frame is sound, and refused.
				if _, n, err := nextFrame(seg); n == 0 || err == nil {
					t.Fatalf("%s does not begin with a sound frame this build refuses: %d bytes, %v", name, n, err)
				}
				collection, _, _ := strings.Cut(name, ".journal.")
				c, ok := reg.Get(collection)
				if !ok {
					t.Fatalf("collection %q not restored; state dir holds %v", collection, dirListing(t, dir))
				}
				want := readSnapshotFile(t, filepath.Join(dir, collection+snapshotExt)).State
				if got, err := c.Aggregator().MarshalState(); err != nil || !bytes.Equal(got, want) || c.Aggregator().Collected() != 0 {
					t.Fatalf("%s: served state is not the snapshot's: %d reports (%v)", collection, c.Aggregator().Collected(), err)
				}
				if marks := c.dedup.marks(); len(marks) != 0 {
					t.Fatalf("%s: refused frame left dedup marks %+v", collection, marks)
				}
				aside := name + ".tail-0" + corruptExt
				if got, err := os.ReadFile(filepath.Join(dir, aside)); err != nil || !bytes.Equal(got, seg) {
					t.Fatalf("%s: refused frames not preserved (%v); state dir holds %v", name, err, dirListing(t, dir))
				}
				if cut, err := os.ReadFile(filepath.Join(dir, name)); err != nil || len(cut) != 0 {
					t.Fatalf("%s still holds %d bytes after the refusal (%v)", name, len(cut), err)
				}
				for _, hint := range []string{name + " at offset 0: sound frame with a payload this build cannot read: " + tc.format, frameUpgradeHint, aside} {
					if !strings.Contains(logged.String(), hint) {
						t.Errorf("log does not mention %q:\n%s", hint, logged)
					}
				}
				asides[aside] = name
			}
			if len(asides) == 0 {
				t.Fatal("fixture holds no journal segment")
			}
			// Any ingest, periodic save or clean stop after a partial
			// replay checkpoints; a store with no memory of the load
			// checkpoints these unchanged collections too. The checkpoint
			// records a journal generation above the truncated segment's
			// and deletes the segment. The set-aside frames survive it,
			// but can no longer be put back: a replay — this build's or
			// the upgrade build's, which share the rule — drops the
			// re-created segment unread as already folded.
			store, err := newStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.SaveAll(reg); err != nil {
				t.Fatal(err)
			}
			for _, c := range reg.Collections() {
				c.CloseJournal()
			}
			for aside, name := range asides {
				collection, suffix, _ := strings.Cut(name, ".journal.")
				gen, err := parseGen(suffix)
				if err != nil {
					t.Fatal(err)
				}
				if snap := readSnapshotFile(t, filepath.Join(dir, collection+snapshotExt)); snap.JournalGen <= gen {
					t.Errorf("%s: checkpoint recorded journal generation %d, not above the refused segment's %d", collection, snap.JournalGen, gen)
				}
				if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
					t.Errorf("%s survived the checkpoint (%v)", name, err)
				}
				if got, err := os.ReadFile(filepath.Join(dir, aside)); err != nil || !bytes.Equal(got, tc.files[name]) {
					t.Errorf("%s did not survive the checkpoint (%v)", aside, err)
				}
			}
			files := stateDirFiles(t, dir)
			for aside, name := range asides {
				files[name] = append(files[name], files[aside]...)
			}
			dir, _, reg = loadFixtureDir(t, files, collections)
			for _, c := range reg.Collections() {
				if c.Aggregator().Collected() != 0 {
					t.Errorf("restart served %d reports in %s", c.Aggregator().Collected(), c.Name())
				}
				c.CloseJournal()
			}
			for _, name := range asides {
				if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
					t.Errorf("put-back %s was not dropped unread as already folded (%v)", name, err)
				}
			}
		})
	}
}
