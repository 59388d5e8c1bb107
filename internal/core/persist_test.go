package core

// Coverage for the checkpoint/restore cycle: the property the whole
// subsystem exists for is that a server restart with a state directory
// resumes with bit-identical estimates, across every mechanism in the
// registry and through the real HTTP surface.

import (
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
	"repro/internal/task/freqtask"
)

// fill drives n random in-domain values through a collection via the
// client half, as reports over the aggregator.
func fill(t *testing.T, c *Collection, seed uint64, n int) {
	t.Helper()
	client, err := NewClient(c.Config().Mechanism, c.Config().Params(), ldprand.NewSplitMix64(seed))
	if err != nil {
		t.Fatal(err)
	}
	src := ldprand.NewSplitMix64(seed + 1)
	for i := 0; i < n; i++ {
		env, err := client.Report(ldprand.Intn(src, c.Config().Domain))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Aggregator().Add(mustRaw(t, env)); err != nil {
			t.Fatal(err)
		}
	}
}

func counts(t *testing.T, c *Collection) []float64 {
	t.Helper()
	m, err := c.Aggregator().MergedCached()
	if err != nil {
		t.Fatal(err)
	}
	return freqCounts(t, m)
}

// TestCheckpointRestartCycle is the acceptance-criteria test:
// checkpoint → new process (fresh registry from the same dir) →
// estimates bit-identical to pre-restart, for every mechanism.
func TestCheckpointRestartCycle(t *testing.T) {
	dir := t.TempDir()
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	for i, mech := range freqtask.Mechanisms() {
		cfg := FreqCollectionConfig(mech, PrivacyParams{Epsilon: 1.5, Domain: 12}, 3)
		c, err := reg.Create("survey-"+mech, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fill(t, c, uint64(100+i), 200)
	}
	if err := store.SaveAll(reg); err != nil {
		t.Fatal(err)
	}

	// "Kill" the process: everything in-memory is dropped; a fresh
	// store over the same directory restores into a fresh registry.
	store2, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := NewCollectionRegistry()
	restored, err := store2.Load(reg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != len(freqtask.Mechanisms()) {
		t.Fatalf("restored %d collections, want %d", len(restored), len(freqtask.Mechanisms()))
	}
	for _, mech := range freqtask.Mechanisms() {
		name := "survey-" + mech
		before, _ := reg.Get(name)
		after, ok := reg2.Get(name)
		if !ok {
			t.Fatalf("collection %s not restored", name)
		}
		if after.Config() != before.Config() {
			t.Fatalf("%s config %+v want %+v", name, after.Config(), before.Config())
		}
		if after.Aggregator().Collected() != before.Aggregator().Collected() {
			t.Fatalf("%s collected %d want %d", name, after.Aggregator().Collected(), before.Aggregator().Collected())
		}
		if !reflect.DeepEqual(counts(t, after), counts(t, before)) {
			t.Fatalf("%s estimates differ after restart", name)
		}
	}

	// The restored collections keep collecting: ingestion after a
	// restart lands on top of the restored tallies.
	c, _ := reg2.Get("survey-" + MechanismGRR)
	was := c.Aggregator().Collected()
	fill(t, c, 999, 50)
	if got := c.Aggregator().Collected(); got != was+50 {
		t.Fatalf("post-restore collected %d want %d", got, was+50)
	}
}

func TestStoreSkipsUnchangedAndLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	c, err := reg.Create("s", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	fill(t, c, 7, 50)
	if err := store.Save(reg, c); err != nil {
		t.Fatal(err)
	}
	info1, err := os.Stat(filepath.Join(dir, "s.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Unchanged epoch → Save must not rewrite the file.
	if err := store.Save(reg, c); err != nil {
		t.Fatal(err)
	}
	info2, err := os.Stat(filepath.Join(dir, "s.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !info2.ModTime().Equal(info1.ModTime()) {
		t.Fatal("unchanged collection was re-checkpointed")
	}
	// New reports advance the epoch → Save rewrites.
	fill(t, c, 8, 10)
	if err := store.Save(reg, c); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("stray temp file %s left behind", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("state dir has %d entries, want 1", len(entries))
	}
}

func TestStoreRemoveAndCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	c, err := reg.Create("gone", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(reg, c); err != nil {
		t.Fatal(err)
	}
	// Remove refuses to unlink while the collection is registered —
	// the file belongs to the live survey.
	if err := store.Remove(reg, "gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gone.json")); err != nil {
		t.Fatal("Remove unlinked a registered collection's snapshot")
	}
	// The DELETE handler's contract: deregister first, then unlink.
	reg.Delete("gone")
	if err := store.Remove(reg, "gone"); err != nil {
		t.Fatal(err)
	}
	if err := store.Remove(reg, "gone"); err != nil {
		t.Fatal("second Remove should be a no-op, got", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gone.json")); !os.IsNotExist(err) {
		t.Fatal("snapshot file survived Remove")
	}

	// A torn or corrupt snapshot is quarantined under .corrupt instead
	// of aborting the load or restoring garbage counts.
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte(`{"name":"bad","config"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newStore(dir); err != nil {
		t.Fatal(err)
	}
	restored, err := store.Load(NewCollectionRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 0 {
		t.Fatalf("restored %v from a corrupt-only state dir", restored)
	}
	if _, err := os.Stat(filepath.Join(dir, "bad.json"+corruptExt)); err != nil {
		t.Fatal("corrupt snapshot was not set aside under .corrupt:", err)
	}
}

// TestSaveCannotResurrectDeletedCollection pins the checkpoint/delete
// race fix: a Save holding a stale *Collection (obtained before a
// concurrent DELETE) must not re-write the snapshot Remove unlinked —
// otherwise the deleted survey would rise again on the next restart.
func TestSaveCannotResurrectDeletedCollection(t *testing.T) {
	dir := t.TempDir()
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	c, err := reg.Create("ghost", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	fill(t, c, 3, 20)
	if err := store.Save(reg, c); err != nil {
		t.Fatal(err)
	}

	// The DELETE handler's sequence: deregister, then unlink.
	reg.Delete("ghost")
	if err := store.Remove(reg, "ghost"); err != nil {
		t.Fatal(err)
	}
	// A checkpoint loop still holding the old pointer fires late.
	if err := store.Save(reg, c); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ghost.json")); !os.IsNotExist(err) {
		t.Fatal("stale Save resurrected the deleted snapshot")
	}

	// Same under re-creation: the stale pointer must not clobber the
	// new same-named collection's snapshot with the old counts.
	c2, err := reg.Create("ghost", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(reg, c2); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(reg, c); err != nil { // stale pointer again
		t.Fatal(err)
	}
	reg3 := NewCollectionRegistry()
	store3, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store3.Load(reg3); err != nil {
		t.Fatal(err)
	}
	got, ok := reg3.Get("ghost")
	if !ok {
		t.Fatal("re-created collection's snapshot missing")
	}
	if got.Aggregator().Collected() != 0 {
		t.Fatalf("stale Save clobbered the new collection: %d reports restored", got.Aggregator().Collected())
	}
}

// TestStoreLockMapReclaimed pins that create/save/delete cycles over
// fresh names do not grow the per-name lock map forever — the entries
// are refcounted and dropped with their last holder.
func TestStoreLockMapReclaimed(t *testing.T) {
	store, err := newStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("cycle-%d", i)
		c, err := reg.Create(name, testCfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Save(reg, c); err != nil {
			t.Fatal(err)
		}
		reg.Delete(name)
		if err := store.Remove(reg, name); err != nil {
			t.Fatal(err)
		}
	}
	store.mu.Lock()
	locks, epochs := len(store.names), len(store.saved)
	store.mu.Unlock()
	if locks != 0 || epochs != 0 {
		t.Fatalf("store retains %d lock entries and %d epoch entries after full cycles", locks, epochs)
	}
}

// TestCaseVariantOrphanDoesNotBrickLoad pins the two halves of the
// case-collision defense on a case-sensitive filesystem: Remove
// unlinks an orphaned case-variant snapshot even while the variant
// collection is live, and Load survives a pre-existing collision by
// setting the losing snapshot aside instead of refusing to start.
func TestCaseVariantOrphanDoesNotBrickLoad(t *testing.T) {
	dir := t.TempDir()
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()

	// Orphan "Study.json" (deregistered, unlink never happened), then a
	// live case-variant "study" with its own snapshot.
	c1, err := reg.Create("Study", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(reg, c1); err != nil {
		t.Fatal(err)
	}
	reg.Delete("Study")
	c2, err := reg.Create("study", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	fill(t, c2, 5, 30)
	if err := store.Save(reg, c2); err != nil {
		t.Fatal(err)
	}

	// The retried delete's Remove must clear the orphan despite the
	// live case-variant: on this (case-sensitive) filesystem they are
	// distinct files.
	if err := store.Remove(reg, "Study"); err != nil {
		t.Fatal(err)
	}
	if store.HasSnapshot("Study") {
		t.Fatal("orphaned case-variant snapshot survived Remove")
	}
	if !store.HasSnapshot("study") {
		t.Fatal("live collection's snapshot was unlinked with the orphan")
	}

	// And if the orphan somehow persists to a restart, Load sets it
	// aside instead of failing the whole startup.
	if err := store.Save(reg, c1); err != nil { // not live: no-op
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "Study.json"),
		mustSnapshotBlob(t, "Study"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg2 := NewCollectionRegistry()
	store2, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := store2.Load(reg2)
	if err != nil {
		t.Fatalf("collision bricked Load: %v", err)
	}
	if len(restored) != 1 {
		t.Fatalf("restored %v, want exactly one of the case pair", restored)
	}
	asides, _ := filepath.Glob(filepath.Join(dir, "*.conflict"))
	if len(asides) != 1 {
		t.Fatalf("conflict files %v, want exactly 1", asides)
	}
}

// mustSnapshotBlob builds a minimal valid snapshot blob for name.
func mustSnapshotBlob(t *testing.T, name string) []byte {
	t.Helper()
	reg := NewCollectionRegistry()
	c, err := reg.Create(name, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	state, err := c.Aggregator().MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := encodeSnapshot(CollectionSnapshot{Version: SnapshotVersion, Name: name, Config: testCfg(), State: state, Enc: EncBinary})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestDeleteSweepGuards pins the 404-path snapshot sweep: a DELETE for
// a name that only case-varies from a live collection (or the default)
// must not unlink that collection's snapshot, while a DELETE for a
// genuinely orphaned snapshot cleans it up.
func TestDeleteSweepGuards(t *testing.T) {
	dir := t.TempDir()
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	if _, err := reg.Create(DefaultCollection, testCfg()); err != nil {
		t.Fatal(err)
	}
	c, err := reg.Create("study-a", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveAll(reg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewMultiService(reg, store).Handler())
	defer ts.Close()

	// Case-variant DELETE: 404, and the live collection's snapshot
	// survives (on a case-insensitive filesystem they are one file).
	if resp := doDelete(t, ts.URL+"/collections/STUDY-A"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("case-variant delete status %d want 404", resp.StatusCode)
	}
	if !store.HasSnapshot("study-a") {
		t.Fatal("case-variant DELETE swept a live collection's snapshot")
	}
	if resp := doDelete(t, ts.URL+"/collections/Default"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("Default delete status %d want 404", resp.StatusCode)
	}
	if !store.HasSnapshot(DefaultCollection) {
		t.Fatal("case-variant DELETE swept the default snapshot")
	}

	// An orphaned snapshot (deregistered, unlink failed in a previous
	// life) is swept by a retried DELETE so the state converges.
	reg.Delete("study-a")
	_ = c
	if resp := doDelete(t, ts.URL+"/collections/study-a"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("orphan delete status %d want 404", resp.StatusCode)
	}
	if store.HasSnapshot("study-a") {
		t.Fatal("orphaned snapshot survived the retried DELETE")
	}
}

// TestServerRestartOverHTTP runs the cycle through the real HTTP
// surface: ingest via POST, checkpoint, rebuild the service from disk,
// and compare the /estimate JSON byte-for-byte.
func TestServerRestartOverHTTP(t *testing.T) {
	dir := t.TempDir()
	store, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	if _, err := reg.Create(DefaultCollection, FreqCollectionConfig(MechanismOLH, PrivacyParams{Epsilon: 2, Domain: 8}, 2)); err != nil {
		t.Fatal(err)
	}
	svc := NewMultiService(reg, store)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// A second survey created over HTTP, then reports into both.
	resp := postJSON(t, ts.URL+"/collections",
		[]byte(`{"name":"study-b","mechanism":"GRR","epsilon":1,"domain":4,"shards":2}`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	client, err := NewClient(MechanismOLH, PrivacyParams{Epsilon: 2, Domain: 8}, ldprand.NewSplitMix64(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		env, err := client.Report(i % 8)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(env)
		if resp := postJSON(t, ts.URL+"/report", body); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("report status %d", resp.StatusCode)
		}
	}
	for i := 0; i < 40; i++ {
		body := []byte(`{"mechanism":"GRR","value":` + string(rune('0'+i%4)) + `}`)
		if resp := postJSON(t, ts.URL+"/collections/study-b/report", body); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("study-b report status %d", resp.StatusCode)
		}
	}
	estimateBefore := getBody(t, ts.URL+"/estimate")
	studyBefore := getBody(t, ts.URL+"/collections/study-b/estimate")
	if err := store.SaveAll(reg); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	// Restart: fresh registry, fresh store, same directory.
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

	if after := getBody(t, ts2.URL+"/estimate"); after != estimateBefore {
		t.Fatalf("default /estimate changed across restart:\n%s\n%s", estimateBefore, after)
	}
	if after := getBody(t, ts2.URL+"/collections/study-b/estimate"); after != studyBefore {
		t.Fatalf("study-b /estimate changed across restart:\n%s\n%s", studyBefore, after)
	}
}
