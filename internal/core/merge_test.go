package core

// Relay delta merging: the binary container round-trips and rejects
// corruption, a fan-in of relay cuts folds to the exact single-node
// state, retried deltas deduplicate, phased deltas from a stale round
// bounce with ErrWrongRound, the /merge route maps each failure to its
// HTTP status, and merge + flush journal frames replay a restart back
// to the identical state.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/binenc"
	"repro/internal/ldprand"
	"repro/internal/task"
	"repro/internal/task/freqtask"
	"repro/internal/task/hhtask"
)

// cutFrom ingests the given batches into a fresh memory-only relay
// collection and cuts its accumulated state as one delta.
func cutFrom(t *testing.T, cfg CollectionConfig, id string, batches ...[]json.RawMessage) Delta {
	t.Helper()
	reg := NewCollectionRegistry()
	c, err := reg.Create("relay-side", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		if _, err := c.IngestBatch(fmt.Sprintf("%s-src-%d", id, i), b); err != nil {
			t.Fatal(err)
		}
	}
	d, err := c.CutDelta(id)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("CutDelta returned nil for a non-empty collection")
	}
	return *d
}

func TestDeltaBinaryRoundTrip(t *testing.T) {
	d := cutFrom(t, testCfg(), "rt-1", crashBatches(t)[0])
	blob, err := EncodeDeltaBinary(d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(blob, deltaMagic) {
		t.Fatal("encoded delta does not carry the container magic")
	}
	got, err := DecodeDeltaBinary(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, d)
	}

	// Every single-bit flip must be caught by the checksum (or the magic
	// check) — the container arrives over HTTP and is hostile input.
	for i := 0; i < len(blob); i += 7 {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x40
		if _, err := DecodeDeltaBinary(bad); err == nil && bytes.Equal(bad[:len(deltaMagic)], deltaMagic) {
			t.Fatalf("bit flip at byte %d decoded cleanly", i)
		}
	}

	// Trailing garbage is rejected even when the CRC is recomputed over
	// it (a forged-length container must not smuggle extra bytes).
	if _, err := DecodeDeltaBinary(blob[:len(blob)-1]); err == nil {
		t.Fatal("truncated container decoded cleanly")
	}

	// Unknown container versions are refused, never guessed at: the
	// checksum refuses the raw splice of the version byte, and a
	// well-formed container whose header names a future version — or a
	// state encoding other than the one that exists — is refused by
	// the header gate.
	future := append([]byte(nil), blob...)
	future[len(deltaMagic)+4] = DeltaVersion + 1
	if _, err := DecodeDeltaBinary(future); err == nil {
		t.Fatal("spliced container version decoded cleanly")
	}
	for name, forge := range map[string]func(*Delta){
		"future header version": func(d *Delta) { d.Version = DeltaVersion + 1 },
		"JSON state encoding":   func(d *Delta) { d.Enc = "" },
	} {
		forged := d
		forge(&forged)
		blob, err := EncodeDeltaBinary(forged)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeDeltaBinary(blob); err == nil {
			t.Fatalf("%s decoded cleanly", name)
		}
	}
}

// TestDeltaGoldenContainer pins the LDPDELTA1 bytes against a committed
// container (testdata/delta_v1.bin, cut by the parent build at commit
// 5a353ae from 50 OLH reports): it decodes, folds into an empty
// collection, and cutting that collection under the same id re-emits
// the identical bytes — container layout, header field order and the
// task state codec all held still.
func TestDeltaGoldenContainer(t *testing.T) {
	golden := fixtureFile(t, "core/testdata/delta_v1.bin")
	d, err := DecodeDeltaBinary(golden)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewCollectionRegistry()
	c, err := reg.Create(d.Collection, CollectionConfig{Config: d.Config, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := c.IngestMerge(d); err != nil || res.Accepted != 50 {
		t.Fatalf("golden delta did not fold: %+v, %v", res, err)
	}
	recut, err := c.CutDelta(d.ID)
	if err != nil || recut == nil {
		t.Fatalf("re-cut: %v, %v", recut, err)
	}
	blob, err := EncodeDeltaBinary(*recut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, golden) {
		t.Fatalf("re-cut container\n%q\ngolden\n%q", blob, golden)
	}
}

// TestMergeFanInMatchesSingleNode is the exactness property the relay
// tier rests on: N relays each folding a share of the batches, cut and
// merged upstream, equals one node that ingested everything directly.
// GRR state is integer support counts, so the equality is exact.
func TestMergeFanInMatchesSingleNode(t *testing.T) {
	batches := crashBatches(t)
	want := crashReference(t, batches)

	reg := NewCollectionRegistry()
	up, err := reg.Create("upstream", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Three relays, round-robined batches — the client's dispatch.
	const relays = 3
	for r := 0; r < relays; r++ {
		var share [][]json.RawMessage
		for i := r; i < len(batches); i += relays {
			share = append(share, batches[i])
		}
		d := cutFrom(t, testCfg(), fmt.Sprintf("relay-%d", r), share...)
		res, err := up.IngestMerge(d)
		if err != nil {
			t.Fatalf("merging relay %d: %v", r, err)
		}
		if res.Replayed || res.Accepted == 0 {
			t.Fatalf("merge of relay %d = %+v", r, res)
		}
	}
	if got := counts(t, up); !reflect.DeepEqual(got, want) {
		t.Fatalf("fan-in estimates = %v, want %v", got, want)
	}
}

func TestIngestMergeIdempotent(t *testing.T) {
	batches := crashBatches(t)
	reg := NewCollectionRegistry()
	up, err := reg.Create("upstream", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	d := cutFrom(t, testCfg(), "dup-1", batches[0], batches[1])
	first, err := up.IngestMerge(d)
	if err != nil {
		t.Fatal(err)
	}
	before := counts(t, up)
	second, err := up.IngestMerge(d)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Replayed || second.Accepted != first.Accepted {
		t.Fatalf("retry = %+v, want replayed with %d accepted", second, first.Accepted)
	}
	if after := counts(t, up); !reflect.DeepEqual(after, before) {
		t.Fatalf("retry changed the estimates: %v -> %v", before, after)
	}
}

func TestCheckDeltaConfigMismatch(t *testing.T) {
	d := cutFrom(t, testCfg(), "cfg-1", crashBatches(t)[0])
	reg := NewCollectionRegistry()

	// An empty Task on either side normalizes to freq: semantically
	// equal configs must pass.
	same, err := reg.Create("same", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	blank := d
	blank.Config.Task = ""
	if err := same.CheckDeltaConfig(blank); err != nil {
		t.Fatalf("normalized config rejected: %v", err)
	}

	otherCfg := testCfg()
	otherCfg.Epsilon = 4
	other, err := reg.Create("other", otherCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.CheckDeltaConfig(d); err == nil {
		t.Fatal("epsilon mismatch passed the config check")
	}
	hh, err := reg.Create("hh", hhCfg(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := hh.CheckDeltaConfig(d); err == nil {
		t.Fatal("task-type mismatch passed the config check")
	}
}

// hhDelta cuts a delta out of a relay-side hh collection mirroring the
// given upstream frontier — the position a real relay reaches by
// adopting what the upstream publishes, never by advancing on its own
// (an independent advance would compute different survivors and the
// exact Merge would rightly refuse the diverged frontiers).
func hhDelta(t *testing.T, id string, frontier json.RawMessage, round, users int) Delta {
	t.Helper()
	reg := NewCollectionRegistry()
	c, err := reg.Create("relay-hh", hhCfg(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if round > 0 {
		if err := c.AdoptFrontier(frontier); err != nil {
			t.Fatal(err)
		}
	}
	client, err := hhtask.NewClient(2, 8, 4, ldprand.NewSplitMix64(uint64(41+round)))
	if err != nil {
		t.Fatal(err)
	}
	src := ldprand.NewSplitMix64(uint64(43 + round))
	envs := make([]json.RawMessage, users)
	for i := range envs {
		if envs[i], err = client.Report(plantedValue(src), round); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.IngestBatch(id+"-src", envs); err != nil {
		t.Fatal(err)
	}
	d, err := c.CutDelta(id)
	if err != nil {
		t.Fatal(err)
	}
	return *d
}

func TestIngestMergeWrongRound(t *testing.T) {
	reg := NewCollectionRegistry()
	up, err := reg.Create("upstream-hh", hhCfg(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	// A delta cut at round 0 merges while the upstream is at round 0...
	d0 := hhDelta(t, "hh-r0", nil, 0, 6)
	if _, err := up.IngestMerge(d0); err != nil {
		t.Fatal(err)
	}
	// ...but not after the upstream closed the round.
	if err := up.AdvanceExpecting(0); err != nil {
		t.Fatal(err)
	}
	stale := hhDelta(t, "hh-stale", nil, 0, 6)
	_, err = up.IngestMerge(stale)
	if !errors.Is(err, task.ErrWrongRound) {
		t.Fatalf("stale-round merge error = %v, want ErrWrongRound", err)
	}
	// The abandoned claim must not wedge the key: a delta re-cut after
	// adopting the upstream's new frontier merges under the same
	// idempotency key.
	fr, err := up.Aggregator().Frontier()
	if err != nil {
		t.Fatal(err)
	}
	fresh := hhDelta(t, "hh-stale", fr, 1, 6)
	if res, err := up.IngestMerge(fresh); err != nil || res.Replayed {
		t.Fatalf("re-merge after 409 = %+v, %v", res, err)
	}
}

// TestMergeHTTPStatuses exercises the /merge route end to end: 200 on
// both wire encodings, replay marked, 400 on config mismatch and
// garbage, 409 on wrong round, oversized idempotency key rejected.
func TestMergeHTTPStatuses(t *testing.T) {
	reg := NewCollectionRegistry()
	agg, err := reg.Create("agg", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("hh", hhCfg(1, 0)); err != nil {
		t.Fatal(err)
	}
	store, err := newStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Attach(agg); err != nil {
		t.Fatal(err)
	}
	svc := NewMultiService(reg, store)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	post := func(path, contentType, key string, body []byte) (*http.Response, MergeResponse) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var mr MergeResponse
		_ = json.NewDecoder(resp.Body).Decode(&mr)
		return resp, mr
	}

	batches := crashBatches(t)
	d := cutFrom(t, testCfg(), "http-1", batches[0], batches[1])
	blob, err := EncodeDeltaBinary(d)
	if err != nil {
		t.Fatal(err)
	}

	// The pre-PR-12 JSON delta form is gone: a JSON body — even a
	// well-formed old-style delta — is 415, journals and folds nothing.
	legacy, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := post("/collections/agg/merge", "application/json", "", legacy)
	if frames, _, _ := agg.JournalHealth(); resp.StatusCode != http.StatusUnsupportedMediaType || frames != 0 || agg.Aggregator().Collected() != 0 {
		t.Fatalf("JSON merge: %s, %d frames journaled, %d reports folded; want 415 and nothing", resp.Status, frames, agg.Aggregator().Collected())
	}

	// The container, then the identical container again — the second
	// answer must come from the dedup record.
	resp, mr := post("/collections/agg/merge", ContentTypeBinary, "", blob)
	if resp.StatusCode != http.StatusOK || mr.Accepted == 0 || mr.Replayed {
		t.Fatalf("merge: %s %+v", resp.Status, mr)
	}
	resp, mr = post("/collections/agg/merge", ContentTypeBinary, "", blob)
	if resp.StatusCode != http.StatusOK || !mr.Replayed {
		t.Fatalf("merge retry: %s %+v, want replayed", resp.Status, mr)
	}
	// The flat alias targets the default collection, which this
	// registry does not define.
	if resp, _ = post("/merge", ContentTypeBinary, "", blob); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("flat route without a default collection: %s, want 404", resp.Status)
	}

	// Config mismatch → 400 with a diagnostic naming the collection.
	resp, _ = post("/collections/hh/merge", ContentTypeBinary, "", blob)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("config mismatch: %s, want 400", resp.Status)
	}

	// Wrong round → 409.
	dh := hhDelta(t, "http-hh", nil, 0, 6)
	if err := mustAdvance(reg, "hh", 0); err != nil {
		t.Fatal(err)
	}
	hblob, err := EncodeDeltaBinary(dh)
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = post("/collections/hh/merge", ContentTypeBinary, "", hblob)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale merge: %s, want 409", resp.Status)
	}

	// Garbage body → 400; oversized Idempotency-Key → 400.
	resp, _ = post("/collections/agg/merge", ContentTypeBinary, "", []byte("{"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage merge body: %s, want 400", resp.Status)
	}
	resp, _ = post("/collections/agg/merge", ContentTypeBinary, strings.Repeat("k", 200), blob)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized key: %s, want 400", resp.Status)
	}
}

func mustAdvance(reg *CollectionRegistry, name string, round int) error {
	c, ok := reg.Get(name)
	if !ok {
		return fmt.Errorf("no collection %q", name)
	}
	return c.AdvanceExpecting(round)
}

// TestMergeJournalReplay kills the upstream right after it acknowledged
// two relay deltas (no checkpoint): the merge frames replay, the
// estimates match, and a resent delta answers from the replayed dedup
// record.
func TestMergeJournalReplay(t *testing.T) {
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
	var deltas []Delta
	for r := 0; r < 2; r++ {
		var share [][]json.RawMessage
		for i := r; i < len(batches); i += 2 {
			share = append(share, batches[i])
		}
		d := cutFrom(t, testCfg(), fmt.Sprintf("jr-%d", r), share...)
		deltas = append(deltas, d)
		if _, err := c.IngestMerge(d); err != nil {
			t.Fatal(err)
		}
	}
	// Process dies here: no checkpoint after the merges.

	store2, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := NewCollectionRegistry()
	if _, err := store2.Load(reg2); err != nil {
		t.Fatal(err)
	}
	c2, ok := reg2.Get(crashCollection)
	if !ok {
		t.Fatal("collection lost")
	}
	if got := counts(t, c2); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed estimates = %v, want %v", got, want)
	}
	for _, d := range deltas {
		res, err := c2.IngestMerge(d)
		if err != nil || !res.Replayed {
			t.Fatalf("post-restart delta resend = %+v, %v; want replayed", res, err)
		}
	}
	if got := counts(t, c2); !reflect.DeepEqual(got, want) {
		t.Fatalf("estimates after resends = %v, want %v", got, want)
	}
}

// mergeTarget serves a journaled two-shard collection of cfg over
// HTTP and folds one honest delta of 12 reports into it through /merge.
// It returns that delta (whose layout forged deltas reuse), a poster
// of deltas answering the status code, the served /estimate body, and
// the collection's journal frame count.
func mergeTarget(t *testing.T, cfg CollectionConfig) (good Delta, merge func(Delta) int, estimate func() string, frames func() int) {
	t.Helper()
	reg := NewCollectionRegistry()
	agg, err := reg.Create("agg", cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := newStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Attach(agg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewMultiService(reg, store).Handler())
	t.Cleanup(ts.Close)

	client, err := NewClient(cfg.Mechanism, cfg.Params(), ldprand.NewSplitMix64(7))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]json.RawMessage, 12)
	for i := range batch {
		env, err := client.Report(i % cfg.Domain)
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = mustRaw(t, env)
	}
	good = cutFrom(t, cfg, "good-"+cfg.Mechanism, batch)
	estimate = func() string {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/collections/agg/estimate")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		if _, err := body.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate: %s, %v", resp.Status, err)
		}
		return body.String()
	}
	merge = func(d Delta) int {
		t.Helper()
		blob, err := EncodeDeltaBinary(d)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+"/collections/agg/merge", ContentTypeBinary, bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	frames = func() int {
		n, _, _ := agg.JournalHealth()
		return n
	}
	if code := merge(good); code != http.StatusOK {
		t.Fatalf("%s: honest delta: %d", cfg.Mechanism, code)
	}
	return good, merge, estimate, frames
}

// forgedDelta is d with its state replaced by a freq state layout:
// version byte, mechanism, ε, d, the fields given, and an n-report
// tally of the given cells.
func forgedDelta(d Delta, id string, cfg CollectionConfig, fields func(*binenc.Writer), n int64, cells []int64) Delta {
	w := binenc.NewWriter()
	defer w.Release()
	w.Byte(0)
	w.String(cfg.Mechanism)
	w.Float64(cfg.Epsilon)
	w.Varint(int64(cfg.Domain))
	if fields != nil {
		fields(w)
	}
	w.Varint(n)
	w.Int64s(cells)
	d.ID = id
	d.State = append([]byte(nil), w.Bytes()...)
	return d
}

// TestMergeRefusesPoisonedLHSupport: a delta whose OLH/BLH support
// vector holds anything but whole numbers in [0, reports] must bounce
// off /merge with 400 before it is journaled or folded — a NaN, a
// fraction or an inflated tally folded in would skew every later
// /estimate, and NaN would make the served JSON unencodable.
func TestMergeRefusesPoisonedLHSupport(t *testing.T) {
	for _, mech := range []string{MechanismOLH, freqtask.MechanismBLH} {
		cfg := FreqCollectionConfig(mech, PrivacyParams{Epsilon: 2, Domain: 8}, 2)
		good, merge, estimate, frames := mergeTarget(t, cfg)
		before, framesBefore := estimate(), frames()

		// The honest state's layout, with one support cell replaced.
		g := 2
		if mech == MechanismOLH {
			g = int(math.Ceil(math.Exp(cfg.Epsilon))) + 1
		}
		withCell := func(cell float64) Delta {
			support := make([]float64, cfg.Domain)
			support[3] = cell
			w := binenc.NewWriter()
			defer w.Release()
			w.Byte(0)
			w.String(mech)
			w.Float64(cfg.Epsilon)
			w.Varint(int64(cfg.Domain))
			w.Varint(int64(g))
			w.Varint(int64(good.Reports))
			w.PackedFloat64s(support)
			d := good
			d.ID = fmt.Sprintf("cell-%s-%v", mech, cell)
			d.State = append([]byte(nil), w.Bytes()...)
			return d
		}
		for _, cell := range []float64{math.NaN(), math.Inf(1), -1, 0.5, float64(good.Reports) + 1} {
			if code := merge(withCell(cell)); code != http.StatusBadRequest {
				t.Errorf("%s: delta with support cell %v: %d, want 400", mech, cell, code)
			}
		}
		if after := estimate(); after != before {
			t.Errorf("%s: /estimate moved after refused deltas:\n%s\n%s", mech, before, after)
		}
		if now := frames(); now != framesBefore {
			t.Errorf("%s: refused deltas journaled %d frames", mech, now-framesBefore)
		}
		// The layout is the real one: with a possible tally it folds.
		if code := merge(withCell(1)); code != http.StatusOK {
			t.Errorf("%s: delta with support cell 1: %d, want 200", mech, code)
		}
	}
}

// TestMergeRefusesForgedTallies: a GRR delta whose counts reach n only
// by wrapping int64, and an SS delta whose cells each lie in [0, n] but
// do not sum to k·n, are tallies no reports could produce. /merge must
// answer 400, journal nothing and leave /estimate byte-identical; a
// possible tally in the same layout folds.
func TestMergeRefusesForgedTallies(t *testing.T) {
	const wrap = 1 << 62
	ssK := func(w *binenc.Writer) { w.Varint(2) } // k = round(8/(e+1)) at ε=1, d=8
	for _, tc := range []struct {
		cfg       CollectionConfig
		fields    func(*binenc.Writer)
		n         int64
		bad, good []int64
	}{
		{FreqCollectionConfig(MechanismGRR, PrivacyParams{Epsilon: 2, Domain: 4}, 2), nil,
			3, []int64{wrap, wrap, wrap, wrap + 3}, []int64{1, 0, 2, 0}},
		{FreqCollectionConfig(freqtask.MechanismSS, PrivacyParams{Epsilon: 1, Domain: 8}, 2), ssK,
			5, []int64{5, 5, 5, 5, 5, 5, 5, 5}, []int64{5, 3, 2, 0, 0, 0, 0, 0}},
	} {
		mech := tc.cfg.Mechanism
		good, merge, estimate, frames := mergeTarget(t, tc.cfg)
		before, framesBefore := estimate(), frames()
		if code := merge(forgedDelta(good, "forged-"+mech, tc.cfg, tc.fields, tc.n, tc.bad)); code != http.StatusBadRequest {
			t.Errorf("%s: delta with cells %v over %d reports: %d, want 400", mech, tc.bad, tc.n, code)
		}
		if after := estimate(); after != before {
			t.Errorf("%s: /estimate moved after a refused delta:\n%s\n%s", mech, before, after)
		}
		if now := frames(); now != framesBefore {
			t.Errorf("%s: a refused delta journaled %d frames", mech, now-framesBefore)
		}
		if code := merge(forgedDelta(good, "possible-"+mech, tc.cfg, tc.fields, tc.n, tc.good)); code != http.StatusOK {
			t.Errorf("%s: delta with a possible tally: %d, want 200", mech, code)
		}
	}
}
