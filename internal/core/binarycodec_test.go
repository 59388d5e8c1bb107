package core

// Properties of the one state codec and the binary report wire: a
// marshaled state restores to the same aggregate bit for bit and
// re-encoding is a fixed point, the frozen legacy JSON states upgrade
// to exactly their golden binary twins, both wire forms fold
// identically, the binary HTTP surface negotiates per collection, and
// the committed v2–v4 checkpoint files restore bit-identically and are
// rewritten in the current container by the next checkpoint.

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
	"repro/internal/task/hhtask"
	"repro/internal/task/meantask"
)

// codecCase is one task family and mechanism shape worth
// cross-checking: a live collection config with a filler that drives
// deterministic reports into it, plus the committed state fixture of
// that family — the legacy JSON file, its golden binary twin, and the
// task config both were written under (at commit 5a353ae, by the last
// build with a JSON state encoder; see the owning package's tests).
type codecCase struct {
	name string
	cfg  CollectionConfig
	fill func(t *testing.T, c *Collection, seed uint64, n int)

	legacy, golden string // fixture paths relative to internal/
	fixtureCfg     task.Config
}

func codecCases() []codecCase {
	freq := func(mech string) codecCase {
		return codecCase{
			name: "freq-" + mech,
			cfg:  FreqCollectionConfig(mech, PrivacyParams{Epsilon: 1.5, Domain: 16}, 2),
			fill: fill,

			legacy:     "freq/testdata/state_" + mech + ".json",
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

			legacy:     "task/cmstask/testdata/state_" + mech + ".json",
			golden:     "task/cmstask/testdata/state_" + mech + ".bin",
			fixtureCfg: task.Config{Task: task.TypeSketch, Mechanism: mech, Epsilon: 2, Width: 64, Hashes: 8, SketchSeed: 42},
		}
	}
	return []codecCase{
		freq(MechanismGRR), freq(MechanismOUE), freq(MechanismSHE), freq(MechanismTHE),
		freq(MechanismOLH), freq(MechanismHRR), freq(MechanismSS),
		{
			name: "mean-harmony", cfg: meanCfg(), fill: fillMean,
			legacy: "mean/testdata/state_harmony.json", golden: "mean/testdata/state_harmony.bin",
			fixtureCfg: task.Config{Task: task.TypeMean, Mechanism: meantask.MechanismHarmony, Epsilon: 1, Dim: 3},
		},
		sketch(cmstask.MechanismCMS), sketch(cmstask.MechanismHCMS),
		{
			name: "hh-PEM", cfg: hhCfg(2, 0), fill: fillHH,
			legacy: "task/hhtask/testdata/state_v2.json", golden: "task/hhtask/testdata/state.bin",
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

// TestCrossCodecStateBitIdentical is the cross-codec property, frozen:
// the committed legacy JSON state of every task family upgrades
// (through legacy.go, the way an old checkpoint or merge frame does)
// to exactly its committed binary twin, that twin restores into a
// sharded aggregator and re-marshals to itself, and so does the state
// of a freshly populated collection.
func TestCrossCodecStateBitIdentical(t *testing.T) {
	for _, tc := range codecCases() {
		t.Run(tc.name, func(t *testing.T) {
			golden := fixtureFile(t, tc.golden)
			upgraded, err := upgradeLegacyState(tc.fixtureCfg, fixtureFile(t, tc.legacy))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(upgraded, golden) {
				t.Fatalf("legacy JSON fixture upgrades to\n%x\ngolden binary fixture is\n%x", upgraded, golden)
			}

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
		if !ab.BinaryWire() {
			t.Fatal("task does not accept binary reports")
		}
		for i := 0; i < n; i++ {
			raw, bin := report(i)
			if err := aj.Add(raw); err != nil {
				t.Fatalf("json report %d: %v", i, err)
			}
			if err := ab.AddBinary(bin); err != nil {
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
	for _, mech := range []string{MechanismGRR, MechanismSUE, MechanismOUE, MechanismSHE, MechanismTHE, MechanismBLH, MechanismOLH, MechanismHRR, MechanismSS} {
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
}

// TestBinaryWireHTTP drives the negotiated binary wire through the
// real HTTP surface: /status advertises the encodings, binary single
// and batch reports are accepted and fold, a JSON-only collection
// (none ship today, so the stand-in is a malformed-negotiation check)
// answers 415 for tasks without a binary decoder, and garbage binary
// bodies bounce with 400 without poisoning the collection.
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

	// The default freq collection advertises both encodings; the hh
	// collection is JSON-only.
	var st StatusResponse
	getJSON(t, ts.URL+"/status", &st)
	if !reflect.DeepEqual(st.Encodings, []string{"json", "binary"}) {
		t.Fatalf("freq encodings = %v", st.Encodings)
	}
	getJSON(t, ts.URL+"/collections/hh/status", &st)
	if !reflect.DeepEqual(st.Encodings, []string{"json"}) {
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

	// A binary report for a JSON-only task is refused by media type.
	resp, err = http.Post(ts.URL+"/collections/hh/report", ContentTypeBinary, bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("binary report to hh: %s, want 415", resp.Status)
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
	store, err := NewStore(dir)
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
// (name → contents) into a fresh registry.
func loadFixtureDir(t *testing.T, files map[string][]byte) (string, *Store, *CollectionRegistry) {
	t.Helper()
	dir := t.TempDir()
	for name, blob := range files {
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	restored, err := store.Load(reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 {
		t.Fatalf("restored %v (state dir now holds %v)", restored, dirListing(t, dir))
	}
	return dir, store, reg
}

// TestLegacySnapshotVersionsRestore pins backward compatibility with
// every historical checkpoint envelope against committed files
// (testdata/snapshot_vN.json, written at commit 5a353ae): a bare v2
// snapshot, a bare phase-aware v3 snapshot of an hh collection in
// round 1, and a v4 checksummed wrapper carrying a journal rotation
// point and dedup marks. Each must restore, and the first checkpoint
// afterwards — with no report ingested, the idle collection the
// pre-PR-12 Store.Load left on its legacy file forever — must rewrite
// it as exactly the v5 container the parent build wrote for the same
// restored state (testdata/snapshot_vN.golden.v5). Byte equality of
// that file is the whole contract at once: the legacy state restored
// bit-identically, round/frontier/batches survived, and this build's
// v5 writer is the parent's. The rewritten file then restores to the
// state it holds.
func TestLegacySnapshotVersionsRestore(t *testing.T) {
	for version, name := range map[int]string{2: "legacyfmt", 3: "legacyhh", 4: "legacyfmt"} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			legacy := fixtureFile(t, fmt.Sprintf("core/testdata/snapshot_v%d.json", version))
			golden := fixtureFile(t, fmt.Sprintf("core/testdata/snapshot_v%d.golden.v5", version))
			dir, store, reg := loadFixtureDir(t, map[string][]byte{name + snapshotExt: legacy})
			if err := store.SaveAll(reg); err != nil {
				t.Fatal(err)
			}
			rewritten, err := os.ReadFile(filepath.Join(dir, name+snapshotExt))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(rewritten, snapshotMagic) {
				t.Fatalf("idle legacy snapshot was not upgraded: %s", rewritten[:min(len(rewritten), 60)])
			}
			if !bytes.Equal(rewritten, golden) {
				t.Fatalf("v%d upgraded to\n%q\ngolden v5 file is\n%q", version, rewritten, golden)
			}
			// A second idle checkpoint has nothing left to upgrade.
			before, err := os.Stat(filepath.Join(dir, name+snapshotExt))
			if err != nil {
				t.Fatal(err)
			}
			if err := store.SaveAll(reg); err != nil {
				t.Fatal(err)
			}
			if after, err := os.Stat(filepath.Join(dir, name+snapshotExt)); err != nil || !os.SameFile(before, after) {
				t.Fatalf("idle v5 snapshot was rewritten again (%v)", err)
			}

			_, _, reg2 := loadFixtureDir(t, map[string][]byte{name + snapshotExt: rewritten})
			c2, _ := reg2.Get(name)
			got, err := c2.Aggregator().MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := decodeSnapshot(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.State) {
				t.Fatalf("v%d restore diverges from the golden state", version)
			}
		})
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
	store, err := NewStore(dir)
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
	store2, err := NewStore(dir)
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
