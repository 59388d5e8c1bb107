package core

// Properties of the one state codec and the binary report wire: a
// marshaled state restores to the same aggregate bit for bit and
// re-encoding is a fixed point — for live states and for every frozen
// state fixture — both wire forms fold identically, the binary HTTP
// surface negotiates per collection, the committed checkpoint
// containers restore and re-encode byte for byte, and a checkpoint
// that predates the container is set aside, never restored.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ldprand"
	"repro/internal/task"
	"repro/internal/task/cmstask"
	"repro/internal/task/freqtask"
	"repro/internal/task/hhtask"
	"repro/internal/task/meantask"
)

// codecCase is one task family and mechanism shape worth
// cross-checking: a live collection config with a filler that drives
// deterministic reports into it, plus the committed state fixture of
// that family and the task config it was written under (at commit
// 5a353ae; see the owning package's tests).
type codecCase struct {
	name string
	cfg  CollectionConfig
	fill func(t *testing.T, c *Collection, seed uint64, n int)

	golden     string // fixture path relative to internal/
	fixtureCfg task.Config
}

func codecCases() []codecCase {
	freq := func(mech string) codecCase {
		return codecCase{
			name: "freq-" + mech,
			cfg:  FreqCollectionConfig(mech, PrivacyParams{Epsilon: 1.5, Domain: 16}, 2),
			fill: fill,

			golden:     "freq/testdata/state_" + mech + ".bin",
			fixtureCfg: FreqTaskConfig(mech, PrivacyParams{Epsilon: 1.25, Domain: 16}),
		}
	}
	sketch := func(mech string) codecCase {
		return codecCase{
			name: "sketch-" + mech,
			cfg: CollectionConfig{
				Config: task.Config{Task: task.TypeSketch, Mechanism: mech, Epsilon: 2, Width: 32, Hashes: 4, SketchSeed: 9},
				Shards: 2,
			},
			fill: fillSketch,

			golden:     "task/cmstask/testdata/state_" + mech + ".bin",
			fixtureCfg: task.Config{Task: task.TypeSketch, Mechanism: mech, Epsilon: 2, Width: 64, Hashes: 8, SketchSeed: 42},
		}
	}
	return []codecCase{
		freq(MechanismGRR), freq(MechanismOUE), freq(freqtask.MechanismSHE), freq(freqtask.MechanismTHE),
		freq(MechanismOLH), freq(freqtask.MechanismHRR), freq(freqtask.MechanismSS),
		{
			name: "mean-harmony", cfg: meanCfg(), fill: fillMean,
			golden:     "mean/testdata/state_harmony.bin",
			fixtureCfg: task.Config{Task: task.TypeMean, Mechanism: meantask.MechanismHarmony, Epsilon: 1, Dim: 3},
		},
		sketch(cmstask.MechanismCMS), sketch(cmstask.MechanismHCMS),
		{
			name: "hh-PEM", cfg: hhCfg(2, 0), fill: fillHH,
			golden:     "task/hhtask/testdata/state.bin",
			fixtureCfg: task.Config{Task: task.TypeHH, Mechanism: hhtask.MechanismPEM, Epsilon: 2, Bits: 8, Levels: 4, K: 3},
		},
	}
}

// fixtureFile reads one committed fixture, path relative to internal/.
func fixtureFile(t testing.TB, path string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", filepath.FromSlash(path)))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestCrossCodecStateBitIdentical is the state codec's fixed point at
// the sharded level, frozen: the committed state fixture of every task
// family restores into a sharded aggregator and re-marshals to itself,
// and so does the state of a freshly populated collection.
func TestCrossCodecStateBitIdentical(t *testing.T) {
	for _, tc := range codecCases() {
		t.Run(tc.name, func(t *testing.T) {
			golden := fixtureFile(t, tc.golden)
			reg := NewCollectionRegistry()
			c, err := reg.Create("x", tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			tc.fill(t, c, 77, 120)
			live, err := c.Aggregator().MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			for _, fp := range []struct {
				cfg   task.Config
				state []byte
			}{{tc.fixtureCfg, golden}, {tc.cfg.Config, live}} {
				restored, err := NewShardedAggregator(fp.cfg, 2)
				if err != nil {
					t.Fatal(err)
				}
				if err := restored.RestoreState(fp.state); err != nil {
					t.Fatal(err)
				}
				again, err := restored.MarshalState()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again, fp.state) {
					t.Fatal("re-encode after restore is not a fixed point")
				}
			}
		})
	}
}

// TestBinaryWireMatchesJSON pins wire-form equivalence: two clients
// seeded identically produce the same underlying randomized report, so
// folding one through the JSON wire and the other through the binary
// wire must land two aggregators on bit-identical states.
func TestBinaryWireMatchesJSON(t *testing.T) {
	// One shard each: shard routing hashes the payload bytes, so the
	// same report's JSON and binary forms land on different stripes,
	// and float summation across stripes is order-dependent. With a
	// single stripe, the fold order is identical and the comparison
	// can demand bit equality.
	const n = 80
	check := func(t *testing.T, cfg task.Config, report func(i int) (json.RawMessage, []byte)) {
		t.Helper()
		aj, err := NewShardedAggregator(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		ab, err := NewShardedAggregator(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			raw, bin := report(i)
			if err := aj.Add(raw); err != nil {
				t.Fatalf("json report %d: %v", i, err)
			}
			if _, err := ab.AddBatchBinary([][]byte{bin}); err != nil {
				t.Fatalf("binary report %d: %v", i, err)
			}
		}
		sj, err := aj.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		sb, err := ab.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sj, sb) {
			t.Fatalf("wire forms diverge:\n%s\nvs\n%s", sj, sb)
		}
	}
	for _, mech := range freqtask.Mechanisms() {
		t.Run("freq-"+mech, func(t *testing.T) {
			p := PrivacyParams{Epsilon: 1.5, Domain: 16}
			cj, err := NewClient(mech, p, ldprand.NewSplitMix64(31))
			if err != nil {
				t.Fatal(err)
			}
			cb, err := NewClient(mech, p, ldprand.NewSplitMix64(31))
			if err != nil {
				t.Fatal(err)
			}
			check(t, FreqTaskConfig(mech, p), func(i int) (json.RawMessage, []byte) {
				env, err := cj.Report(i % p.Domain)
				if err != nil {
					t.Fatal(err)
				}
				bin, err := cb.ReportBinary(i % p.Domain)
				if err != nil {
					t.Fatal(err)
				}
				return mustRaw(t, env), bin
			})
		})
	}
	for _, mech := range []string{meantask.MechanismDuchi, meantask.MechanismHarmony} {
		t.Run("mean-"+mech, func(t *testing.T) {
			dim := 1
			if mech == meantask.MechanismHarmony {
				dim = 3
			}
			cfg := task.Config{Task: task.TypeMean, Mechanism: mech, Epsilon: 1, Dim: dim}
			cj, err := meantask.NewClient(cfg, ldprand.NewSplitMix64(32))
			if err != nil {
				t.Fatal(err)
			}
			cb, err := meantask.NewClient(cfg, ldprand.NewSplitMix64(32))
			if err != nil {
				t.Fatal(err)
			}
			src := ldprand.NewSplitMix64(33)
			check(t, cfg, func(i int) (json.RawMessage, []byte) {
				x := make([]float64, dim)
				for j := range x {
					x[j] = 2*ldprand.Float64(src) - 1
				}
				raw, err := cj.Report(x)
				if err != nil {
					t.Fatal(err)
				}
				bin, err := cb.ReportBinary(x)
				if err != nil {
					t.Fatal(err)
				}
				return raw, bin
			})
		})
	}
	for _, mech := range []string{cmstask.MechanismCMS, cmstask.MechanismHCMS} {
		t.Run("sketch-"+mech, func(t *testing.T) {
			cfg := task.Config{Task: task.TypeSketch, Mechanism: mech, Epsilon: 2, Width: 32, Hashes: 4, SketchSeed: 9}
			cj, err := cmstask.NewClient(cfg, ldprand.NewSplitMix64(34))
			if err != nil {
				t.Fatal(err)
			}
			cb, err := cmstask.NewClient(cfg, ldprand.NewSplitMix64(34))
			if err != nil {
				t.Fatal(err)
			}
			check(t, cfg, func(i int) (json.RawMessage, []byte) {
				item := []byte(fmt.Sprintf("item-%d", i%7))
				raw, err := cj.Report(item)
				if err != nil {
					t.Fatal(err)
				}
				bin, err := cb.ReportBinary(item)
				if err != nil {
					t.Fatal(err)
				}
				return raw, bin
			})
		})
	}
	t.Run("hh-PEM", func(t *testing.T) {
		cj, err := hhtask.NewClient(2, 8, 4, ldprand.NewSplitMix64(35))
		if err != nil {
			t.Fatal(err)
		}
		cb, err := hhtask.NewClient(2, 8, 4, ldprand.NewSplitMix64(35))
		if err != nil {
			t.Fatal(err)
		}
		check(t, hhCfg(2, 0).Config, func(i int) (json.RawMessage, []byte) {
			raw, err := cj.Report(uint64(i*37%256), 0)
			if err != nil {
				t.Fatal(err)
			}
			bin, err := cb.ReportBinary(uint64(i*37%256), 0)
			if err != nil {
				t.Fatal(err)
			}
			return raw, bin
		})
	})
}

// TestBinaryWireHTTP drives the binary wire through the real HTTP
// surface: /status advertises both encodings for every task, binary
// single and batch reports are accepted and fold — on the phased hh
// collection too, where a binary report reaches the state a JSON one
// does — and garbage binary bodies bounce with 400 without poisoning
// the collection.
func TestBinaryWireHTTP(t *testing.T) {
	reg := NewCollectionRegistry()
	if _, err := reg.Create(DefaultCollection, FreqCollectionConfig(MechanismOLH, PrivacyParams{Epsilon: 2, Domain: 8}, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("hh", hhCfg(2, 0)); err != nil {
		t.Fatal(err)
	}
	svc := NewMultiService(reg, nil)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Every collection advertises both encodings.
	var st StatusResponse
	getJSON(t, ts.URL+"/status", &st)
	if !reflect.DeepEqual(st.Encodings, []string{"json", "binary"}) {
		t.Fatalf("freq encodings = %v", st.Encodings)
	}
	getJSON(t, ts.URL+"/collections/hh/status", &st)
	if !reflect.DeepEqual(st.Encodings, []string{"json", "binary"}) {
		t.Fatalf("hh encodings = %v", st.Encodings)
	}

	client, err := NewClient(MechanismOLH, PrivacyParams{Epsilon: 2, Domain: 8}, ldprand.NewSplitMix64(41))
	if err != nil {
		t.Fatal(err)
	}
	// Single binary report.
	bin, err := client.ReportBinary(3)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/report", ContentTypeBinary, bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("binary report: %s", resp.Status)
	}
	// Binary batch: uvarint count + length-prefixed envelopes.
	var batch bytes.Buffer
	var payloads [][]byte
	for i := 0; i < 5; i++ {
		b, err := client.ReportBinary(i % 8)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, b)
	}
	batch.WriteByte(byte(len(payloads)))
	for _, p := range payloads {
		batch.WriteByte(byte(len(p)))
		batch.Write(p)
	}
	resp, err = http.Post(ts.URL+"/report/batch", ContentTypeBinary, &batch)
	if err != nil {
		t.Fatal(err)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || br.Accepted != 5 {
		t.Fatalf("binary batch: %s, %+v", resp.Status, br)
	}
	getJSON(t, ts.URL+"/status", &st)
	if st.Reports != 6 {
		t.Fatalf("reports after binary ingest = %d, want 6", st.Reports)
	}

	// The hh collection takes a binary report, and lands on the state
	// the same report sent as JSON reaches in a twin collection; a
	// binary report of a stale round is a 409, as a JSON one is.
	if _, err := reg.Create("hh-json", hhCfg(2, 0)); err != nil {
		t.Fatal(err)
	}
	hj, err := hhtask.NewClient(2, 8, 4, ldprand.NewSplitMix64(43))
	if err != nil {
		t.Fatal(err)
	}
	hb, err := hhtask.NewClient(2, 8, 4, ldprand.NewSplitMix64(43))
	if err != nil {
		t.Fatal(err)
	}
	for round, want := range []int{http.StatusAccepted, http.StatusConflict} {
		raw, err := hj.Report(77, round)
		if err != nil {
			t.Fatal(err)
		}
		hbin, err := hb.ReportBinary(77, round)
		if err != nil {
			t.Fatal(err)
		}
		for _, post := range []struct {
			path, contentType string
			body              []byte
		}{{"/collections/hh-json/report", "application/json", raw}, {"/collections/hh/report", ContentTypeBinary, hbin}} {
			resp, err = http.Post(ts.URL+post.path, post.contentType, bytes.NewReader(post.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Fatalf("%s report of round %d to %s: %s, want %d", post.contentType, round, post.path, resp.Status, want)
			}
		}
	}
	hhStates := make([][]byte, 2)
	for i, name := range []string{"hh", "hh-json"} {
		c, _ := reg.Get(name)
		if hhStates[i], err = c.Aggregator().MarshalState(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(hhStates[0], hhStates[1]) {
		t.Fatal("hh: the binary report and its JSON twin reach different states")
	}
	// Garbage binary bodies are 400s, and the collection keeps serving.
	for _, garbage := range [][]byte{nil, {0xFF}, {0x00, 0x01, 0x02}, bytes.Repeat([]byte{0x7F}, 64)} {
		resp, err = http.Post(ts.URL+"/report", ContentTypeBinary, bytes.NewReader(garbage))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("garbage binary report: %s, want 400", resp.Status)
		}
	}
	getJSON(t, ts.URL+"/status", &st)
	if st.Reports != 6 {
		t.Fatalf("reports after garbage = %d, want 6", st.Reports)
	}
}

// getJSON fetches and decodes one JSON endpoint.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestStatusReportsCheckpointInfo pins the /status durability field:
// after a checkpoint, the collection's status carries the snapshot's
// on-disk size.
func TestStatusReportsCheckpointInfo(t *testing.T) {
	dir := t.TempDir()
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	c, err := reg.Create(DefaultCollection, FreqCollectionConfig(MechanismOLH, PrivacyParams{Epsilon: 2, Domain: 8}, 2))
	if err != nil {
		t.Fatal(err)
	}
	fill(t, c, 51, 30)
	if err := store.SaveAll(reg); err != nil {
		t.Fatal(err)
	}
	svc := NewMultiService(reg, store)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	var st StatusResponse
	getJSON(t, ts.URL+"/status", &st)
	if st.CheckpointInfo == nil {
		t.Fatal("status carries no checkpoint info after a save")
	}
	fi, err := os.Stat(filepath.Join(dir, DefaultCollection+snapshotExt))
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes != fi.Size() {
		t.Fatalf("checkpoint_bytes = %d, file is %d", st.Bytes, fi.Size())
	}
}

// loadFixtureDir restores a state directory holding the given files
// (name → contents) into a fresh registry, and fails unless exactly
// restores collections restore.
func loadFixtureDir(t *testing.T, files map[string][]byte, restores int) (string, *Store, *CollectionRegistry) {
	t.Helper()
	dir := t.TempDir()
	for name, blob := range files {
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	restored, err := store.Load(reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != restores {
		t.Fatalf("restored %v, want %d collections (state dir now holds %v)", restored, restores, dirListing(t, dir))
	}
	return dir, store, reg
}

// TestGoldenSnapshotsRestore pins the checkpoint container against
// committed files, written by the build of commit 5a353ae: an idle
// freq collection (v2), an hh collection in round 1 with its frontier
// (v3), a freq collection carrying a journal rotation point and dedup
// marks (v4), and one checkpointed after a replayed merge frame
// (merge). Each must decode and re-encode to itself, restore to the
// state it holds, and — checkpointed again by a store with no memory
// of the load, so the write is not skipped — come out with nothing
// moved but the journal rotation point. Byte equality is the whole
// contract at once: state, round, frontier and batches survive, and
// this build's container writer is that build's.
func TestGoldenSnapshotsRestore(t *testing.T) {
	for _, tc := range []struct{ fixture, name string }{
		{"snapshot_v2", "legacyfmt"}, {"snapshot_v3", "legacyhh"}, {"snapshot_v4", "legacyfmt"}, {"legacy_merge", "mergelegacy"},
	} {
		t.Run(strings.TrimPrefix(tc.fixture, "snapshot_"), func(t *testing.T) {
			golden := fixtureFile(t, "core/testdata/"+tc.fixture+".golden.v5")
			want, err := decodeSnapshot(golden)
			if err != nil {
				t.Fatal(err)
			}
			if again, err := encodeSnapshot(want); err != nil || !bytes.Equal(again, golden) {
				t.Fatalf("decoded container re-encodes to\n%q (%v)\ngolden\n%q", again, err, golden)
			}

			dir, _, reg := loadFixtureDir(t, map[string][]byte{tc.name + snapshotExt: golden}, 1)
			c, _ := reg.Get(tc.name)
			if got, err := c.Aggregator().MarshalState(); err != nil || !bytes.Equal(got, want.State) {
				t.Fatalf("restore diverges from the golden state (%v)", err)
			}
			fresh, err := newStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Save(reg, c); err != nil {
				t.Fatal(err)
			}
			rewritten, err := os.ReadFile(filepath.Join(dir, tc.name+snapshotExt))
			if err != nil {
				t.Fatal(err)
			}
			want.JournalGen++
			if rotated, err := encodeSnapshot(want); err != nil || !bytes.Equal(rewritten, rotated) {
				t.Fatalf("restored collection checkpoints as\n%q\nwant the golden file one rotation on (%v)\n%q", rewritten, err, rotated)
			}
		})
	}
}

// TestPreContainerSnapshotQuarantined pins what happens to a
// checkpoint older than the container: the committed version-4 JSON
// file (checksummed wrapper, JSON state), a task-tagged version-2 one
// and a bare pre-task one are set aside under .corrupt with their
// bytes intact — never restored,
// never rewritten, never deleted — the log says what the file is and
// which build upgrades it, and the current-format collection beside
// them restores as if they were not there.
func TestPreContainerSnapshotQuarantined(t *testing.T) {
	logged := captureLog(t)
	old := map[string][]byte{
		"legacyfmt" + snapshotExt: fixtureFile(t, "core/testdata/snapshot_v4.json"),
		"tagged" + snapshotExt: []byte(`{"version":2,"name":"tagged","config":{"task":"freq","mechanism":"OLH","epsilon":2,"domain":8,"shards":2},` +
			`"state":{"mechanism":"OLH","epsilon":2,"domain":8,"g":9,"n":0,"support":[0,0,0,0,0,0,0,0]}}`),
		"bare" + snapshotExt: []byte(`{"name":"bare","config":{"mechanism":"OLH","epsilon":2,"domain":8,"shards":2},` +
			`"state":{"mechanism":"OLH","epsilon":2,"domain":8,"g":9,"n":0,"support":[0,0,0,0,0,0,0,0]}}`),
	}
	files := map[string][]byte{"legacyhh" + snapshotExt: fixtureFile(t, "core/testdata/snapshot_v3.golden.v5")}
	for name, blob := range old {
		files[name] = blob
	}
	dir, store, reg := loadFixtureDir(t, files, 1) // exactly one collection restores
	if _, ok := reg.Get("legacyhh"); !ok || len(reg.Collections()) != 1 {
		t.Fatalf("restored %d collections, want only the v5 neighbour", len(reg.Collections()))
	}
	if err := store.SaveAll(reg); err != nil {
		t.Fatal(err)
	}
	// A later start ignores the set-aside files and restores the same
	// neighbour.
	store2, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if restored, err := store2.Load(NewCollectionRegistry()); err != nil || len(restored) != 1 {
		t.Fatalf("second load restored %v (%v)", restored, err)
	}
	for name, blob := range old {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s is still (or again) in place: %v (state dir holds %v)", name, err, dirListing(t, dir))
		}
		if aside, err := os.ReadFile(filepath.Join(dir, name+corruptExt)); err != nil || !bytes.Equal(aside, blob) {
			t.Errorf("%s%s does not hold the file's bytes (%v)", name, corruptExt, err)
		}
		for _, hint := range []string{name + corruptExt, "predates LDPSNAP5", "commit " + upgradeBuild} {
			if !strings.Contains(logged.String(), hint) {
				t.Errorf("log does not mention %q:\n%s", hint, logged)
			}
		}
	}
}

// dirListing names the state directory's contents for failure messages.
func dirListing(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestBinaryCheckpointKillRestart is the durability acceptance test
// under the binary codec: checkpoint a binary-state collection, start
// a fresh process over the same directory, and require bit-identical
// estimates — with the on-disk file actually in the v5 binary
// container (magic prefix), not JSON.
func TestBinaryCheckpointKillRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	c, err := reg.Create(DefaultCollection, FreqCollectionConfig(MechanismOLH, PrivacyParams{Epsilon: 2, Domain: 8}, 2))
	if err != nil {
		t.Fatal(err)
	}
	fill(t, c, 71, 60)
	want := counts(t, c)
	if err := store.SaveAll(reg); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, DefaultCollection+snapshotExt))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(blob, snapshotMagic) {
		t.Fatalf("checkpoint is not a v5 binary container: %s", blob[:min(len(blob), 40)])
	}
	if strings.Contains(string(blob), `"state"`) {
		t.Fatal("binary container still carries a JSON state field")
	}
	store2, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := NewCollectionRegistry()
	if _, err := store2.Load(reg2); err != nil {
		t.Fatal(err)
	}
	c2, ok := reg2.Get(DefaultCollection)
	if !ok {
		t.Fatal("collection did not restore")
	}
	if got := counts(t, c2); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored counts diverge:\n%v\nvs\n%v", got, want)
	}
	if info, ok := store2.LastCheckpoint(DefaultCollection); !ok || info.Bytes != int64(len(blob)) {
		t.Fatalf("restored checkpoint info = %+v, %v", info, ok)
	}
}
