package core

// Golden journals: three state directories holding the same traffic
// script — JSON and binary batches, JSON and binary single reports, a
// merge and a flush on a freq collection; batches, a single report, an
// advance, a merge, a flush and an adopt on a phased hh collection.
//
// testdata/golden_journal was written by the build of commit 42ca3c4,
// whose frame payload was a JSON object. It is frozen: nothing writes
// that format any more, and the fixture pins that it is still read —
// replaying it reaches the state, dedup marks and re-cut deltas that
// build reached (the replayed.* files beside it).
//
// testdata/golden_journal_v2 is the same script as the builds up to
// commit e14390b wrote it: binary payloads, with JSON reports journaled
// as received in 0x01 batch frames. It is frozen too: this build reads
// 0x01 frames, translating their envelopes at replay, and writes none.
//
// testdata/golden_journal_v3 is the same script written by this build,
// where every batch — JSON clients' included — is journaled as binary
// payloads. It pins the writer: the live ingest path journals exactly
// those bytes, every record re-frames to the bytes it was read from,
// and its replay equals the same replayed.* files — one set of
// expected states for all three formats, so "the format changed, what
// it means did not" is a byte comparison.
//
// LDP_UPDATE_GOLDEN=1 go test -run TestGoldenJournal ./internal/core/
// rewrites golden_journal_v3 (and nothing else) from the running
// build; regenerate it only in a change that means to move the format.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/ldprand"
	"repro/internal/task/freqtask"
	"repro/internal/task/hhtask"
)

const (
	goldenJournalDir   = "testdata/golden_journal"    // JSON payloads, frozen at 42ca3c4
	goldenJournalV2Dir = "testdata/golden_journal_v2" // binary payloads with 0x01 JSON batches, frozen at e14390b
	goldenJournalV3Dir = "testdata/golden_journal_v3" // binary payloads, binary batches only, written by this build
)

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

// goldenFrames parses every journal segment among files, requires them
// to read whole and every record but a JSON batch (read, never
// written) to survive re-framing, and returns the record kinds seen
// (a batch as "batch/<encoding>") and the set of first payload bytes —
// the byte that tells the formats apart.
func goldenFrames(t *testing.T, files map[string][]byte) (kinds map[string]bool, firstBytes map[byte]bool) {
	t.Helper()
	kinds, firstBytes = make(map[string]bool), make(map[byte]bool)
	for name, data := range files {
		if !strings.Contains(name, ".journal.") {
			continue
		}
		for off := 0; off < len(data); {
			rec, n, err := nextFrame(data[off:])
			if err != nil {
				t.Fatalf("%s: frame at byte %d of %d: %v", name, off, len(data), err)
			}
			kind := rec.Kind
			if rec.Kind == recordBatch {
				kind += "/" + rec.Enc
			}
			kinds[kind] = true
			firstBytes[data[off+8]] = true
			// Every record re-frames to one that reads back equal, whichever
			// format it was read from.
			if kind != recordBatch+"/" {
				if again, _, err := nextFrame(frameBytes(t, rec)); err != nil || !reflect.DeepEqual(again, rec) {
					t.Errorf("%s: record at byte %d does not survive re-framing (%v)", name, off, err)
				}
			}
			off += n
		}
	}
	return kinds, firstBytes
}

// requireKinds fails for every kind in want that a fixture's frames
// do not hold.
func requireKinds(t *testing.T, fixture string, kinds map[string]bool, want ...string) {
	t.Helper()
	for _, kind := range want {
		if !kinds[kind] {
			t.Errorf("%s holds no %q frame", fixture, kind)
		}
	}
}

func TestGoldenJournal(t *testing.T) {
	live := t.TempDir()
	goldenScript(t, live)
	liveFiles := stateDirFiles(t, live)

	if os.Getenv("LDP_UPDATE_GOLDEN") != "" {
		if err := os.RemoveAll(goldenJournalV3Dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(goldenJournalV3Dir, 0o755); err != nil {
			t.Fatal(err)
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
	// bytes, and its records re-frame to the bytes they were read from.
	v3 := stateDirFiles(t, goldenJournalV3Dir)
	if got, want := sortedKeys(liveFiles), sortedKeys(v3); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("state dir holds %v, fixture %v", got, want)
	}
	for name, want := range v3 {
		if !bytes.Equal(liveFiles[name], want) {
			t.Errorf("%s: live path wrote\n%q\nfixture\n%q", name, liveFiles[name], want)
		}
		if !strings.Contains(name, ".journal.") {
			continue
		}
		recs, _ := parseFrames(want)
		var again []byte
		for _, rec := range recs {
			again = append(again, frameBytes(t, rec)...)
		}
		if !bytes.Equal(again, want) {
			t.Errorf("%s: records re-encode to\n%q\nfixture\n%q", name, again, want)
		}
	}
	allKinds := []string{recordAdvance, recordMerge, recordFlush, recordAdopt}
	kinds, first := goldenFrames(t, v3)
	requireKinds(t, goldenJournalV3Dir, kinds, append(allKinds, "batch/"+EncBinary)...)
	if first['{'] || first[kindBatchJSON] {
		t.Errorf("%s holds payloads beginning %v: a JSON payload or a 0x01 batch", goldenJournalV3Dir, first)
	}

	// The frozen fixtures: v2's JSON reports sit in 0x01 batches, the
	// first fixture's payloads are all JSON. Both lie over the same
	// checkpoints.
	v2 := stateDirFiles(t, goldenJournalV2Dir)
	kinds, first = goldenFrames(t, v2)
	requireKinds(t, goldenJournalV2Dir, kinds, append(allKinds, "batch/", "batch/"+EncBinary)...)
	if first['{'] {
		t.Errorf("%s holds a frame whose payload begins with '{': the legacy reader would claim it", goldenJournalV2Dir)
	}
	legacy := stateDirFiles(t, goldenJournalDir)
	if _, first := goldenFrames(t, legacy); len(first) != 1 || !first['{'] {
		t.Errorf("%s holds payloads beginning %v, want only '{'", goldenJournalDir, first)
	}
	for _, fixture := range []map[string][]byte{legacy, v2} {
		for name, blob := range fixture {
			if !strings.Contains(name, ".journal.") && !bytes.Equal(blob, v3[name]) {
				t.Errorf("%s differs between the fixtures", name)
			}
		}
	}

	// Replaying any fixture reaches the one committed set of states,
	// dedup marks and re-cut deltas.
	want := make(map[string][]byte)
	entries, err := os.ReadDir(goldenJournalDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "replayed.") {
			continue
		}
		if want[e.Name()], err = os.ReadFile(filepath.Join(goldenJournalDir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	if len(want) != 6 {
		t.Fatalf("fixture holds replay outputs %v, want 6", sortedKeys(want))
	}
	for _, fixture := range []struct {
		dir   string
		files map[string][]byte
	}{{goldenJournalDir, legacy}, {goldenJournalV2Dir, v2}, {goldenJournalV3Dir, v3}} {
		dir := t.TempDir()
		for name, blob := range fixture.files {
			if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		replayed := goldenReplay(t, dir)
		if len(replayed) != len(want) {
			t.Errorf("%s: replay produced %v, want %v", fixture.dir, sortedKeys(replayed), sortedKeys(want))
		}
		for name, blob := range want {
			if got, ok := replayed[name]; !ok || !bytes.Equal(got, blob) {
				t.Errorf("%s: %s: replay produced\n%q\ncommitted\n%q", fixture.dir, name, got, blob)
			}
		}
	}
}
