package core

// The one ingest path, checked from both ends: every entry point
// (single reports over HTTP, batches through the ingest functions,
// JSON or binary) and the replay of what each journaled reach the same
// state bit for bit, and the loop under them stays exact when a phased
// task's round advances beneath it.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync"
	"testing"

	"repro/internal/ldprand"
	"repro/internal/task"
	"repro/internal/task/cmstask"
	"repro/internal/task/hhtask"
	"repro/internal/task/meantask"
)

// TestIngestEntryPointsAgree feeds the same privatized reports of every
// task family — with two bad reports per batch, one of them a JSON
// envelope that does not translate — through POST …/report in both
// encodings, IngestBatch and IngestBatchBinary, each into its own
// journaled collection, then restarts each from its journal alone.
// All eight states must be bit-identical, the batch routes must record
// identical dedup marks (the single routes none), replay must
// re-record exactly the marks the live path did, and the JSON batch
// route must still name the translation error.
func TestIngestEntryPointsAgree(t *testing.T) {
	const n, per = 24, 6
	freqReports := func(t *testing.T) ([]json.RawMessage, [][]byte) { return goldenFreqReports(t, 61, n) }
	// twins privatizes n reports in both wire forms from one seed (the
	// two clients consume identical randomness).
	twins := func(t *testing.T, report func(i int) (json.RawMessage, []byte, error)) ([]json.RawMessage, [][]byte) {
		envs, bins := make([]json.RawMessage, n), make([][]byte, n)
		for i := range envs {
			var err error
			if envs[i], bins[i], err = report(i); err != nil {
				t.Fatal(err)
			}
		}
		return envs, bins
	}
	meanReports := func(cfg CollectionConfig) func(*testing.T) ([]json.RawMessage, [][]byte) {
		return func(t *testing.T) ([]json.RawMessage, [][]byte) {
			cj, err := meantask.NewClient(cfg.Config, ldprand.NewSplitMix64(63))
			if err != nil {
				t.Fatal(err)
			}
			cb, _ := meantask.NewClient(cfg.Config, ldprand.NewSplitMix64(63))
			return twins(t, func(i int) (json.RawMessage, []byte, error) {
				x := make([]float64, cj.Dim())
				for j := range x {
					x[j] = float64((i+j)%9)/4 - 1
				}
				env, err := cj.Report(x)
				if err != nil {
					return nil, nil, err
				}
				bin, err := cb.ReportBinary(x)
				return env, bin, err
			})
		}
	}
	duchi := CollectionConfig{Config: task.Config{Task: task.TypeMean, Mechanism: meantask.MechanismDuchi, Epsilon: 1}, Shards: 1}
	harmony := meanCfg()
	harmony.Shards = 1 // float sums: bit equality needs one fold order
	hhReports := func(t *testing.T) ([]json.RawMessage, [][]byte) {
		cj, err := hhtask.NewClient(2, 8, 4, ldprand.NewSplitMix64(64))
		if err != nil {
			t.Fatal(err)
		}
		cb, _ := hhtask.NewClient(2, 8, 4, ldprand.NewSplitMix64(64))
		src := ldprand.NewSplitMix64(65)
		return twins(t, func(i int) (json.RawMessage, []byte, error) {
			v := plantedValue(src)
			env, err := cj.Report(v, 0)
			if err != nil {
				return nil, nil, err
			}
			bin, err := cb.ReportBinary(v, 0)
			return env, bin, err
		})
	}
	sketch := sketchCfg()
	sketch.Shards = 1 // float cells: bit equality needs one fold order
	sketchReports := func(t *testing.T) ([]json.RawMessage, [][]byte) {
		cj, err := cmstask.NewClient(sketch.Config, ldprand.NewSplitMix64(62))
		if err != nil {
			t.Fatal(err)
		}
		cb, _ := cmstask.NewClient(sketch.Config, ldprand.NewSplitMix64(62))
		envs, bins := make([]json.RawMessage, n), make([][]byte, n)
		for i := range envs {
			item := []byte(fmt.Sprintf("item-%d", i%5))
			if envs[i], err = cj.Report(item); err != nil {
				t.Fatal(err)
			}
			if bins[i], err = cb.ReportBinary(item); err != nil {
				t.Fatal(err)
			}
		}
		return envs, bins
	}
	for name, tc := range map[string]struct {
		cfg     CollectionConfig
		reports func(*testing.T) ([]json.RawMessage, [][]byte)
	}{
		"freq":         {testCfg(), freqReports},
		"sketch":       {sketch, sketchReports},
		"mean-duchi":   {duchi, meanReports(duchi)},
		"mean-harmony": {harmony, meanReports(harmony)},
		"hh":           {hhCfg(2, 0), hhReports},
	} {
		t.Run(name, func(t *testing.T) {
			envs, bins := tc.reports(t)
			// The bad reports: a JSON envelope naming another mechanism
			// (it translates, and PrepareBinary refuses it), one whose
			// mechanism is not a string (it does not translate), and
			// their binary stand-ins — a payload of junk, an empty one.
			badEnvs := []json.RawMessage{json.RawMessage(`{"mechanism":"nope"}`), json.RawMessage(`{"mechanism":["nope"]}`)}
			badBins := [][]byte{{0xff}, {}}
			// Each route ingests batch b as reports [b*per, (b+1)*per)
			// followed by the bad reports.
			// postSingles sends one POST …/report per report: 202 for
			// the good ones, 400 for the bad ones behind them.
			postSingles := func(url, contentType string, good, bad [][]byte) (int, error) {
				for i, body := range append(append([][]byte(nil), good...), bad...) {
					resp, err := http.Post(url+"/collections/diff/report", contentType, bytes.NewReader(body))
					if err != nil {
						return 0, err
					}
					resp.Body.Close()
					want := http.StatusAccepted
					if i >= len(good) {
						want = http.StatusBadRequest
					}
					if resp.StatusCode != want {
						return 0, fmt.Errorf("report %d answered %s, want %d", i, resp.Status, want)
					}
				}
				return len(good), nil
			}
			routes := []struct {
				name   string
				ingest func(c *Collection, url string, b int) (accepted int, err error)
			}{
				{"report", func(_ *Collection, url string, b int) (int, error) {
					good := make([][]byte, per)
					for i, env := range envs[b*per : (b+1)*per] {
						good[i] = env
					}
					return postSingles(url, "application/json", good, [][]byte{badEnvs[0], badEnvs[1]})
				}},
				{"report-binary", func(_ *Collection, url string, b int) (int, error) {
					return postSingles(url, ContentTypeBinary, bins[b*per:(b+1)*per], badBins)
				}},
				{"batch", func(c *Collection, _ string, b int) (int, error) {
					batch := append(append([]json.RawMessage(nil), envs[b*per:(b+1)*per]...), badEnvs...)
					res, err := c.IngestBatch(fmt.Sprintf("diff-%d", b), batch)
					if err == nil && !regexp.MustCompile(fmt.Sprintf(`envelope %d: \w+: bad envelope: json`, per+1)).MatchString(fmt.Sprint(res.RejectErr)) {
						err = fmt.Errorf("rejections %v do not name the translation error of envelope %d", res.RejectErr, per+1)
					}
					return res.Accepted, err
				}},
				{"batch-binary", func(c *Collection, _ string, b int) (int, error) {
					batch := append(append([][]byte(nil), bins[b*per:(b+1)*per]...), badBins...)
					res, err := c.IngestBatchBinary(fmt.Sprintf("diff-%d", b), batch)
					return res.Accepted, err
				}},
			}
			var states [][]byte
			var marks []string
			for _, route := range routes {
				dir := t.TempDir()
				store, err := newStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				reg := NewCollectionRegistry()
				c, err := reg.Create("diff", tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := store.Attach(c); err != nil {
					t.Fatal(err)
				}
				if err := store.Save(reg, c); err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(NewMultiService(reg, store).Handler())
				for b := 0; b < n/per; b++ {
					if accepted, err := route.ingest(c, ts.URL, b); err != nil || accepted != per {
						t.Fatalf("%s batch %d: accepted %d, %v", route.name, b, accepted, err)
					}
				}
				ts.Close()
				c.CloseJournal()
				reg2 := NewCollectionRegistry()
				store2, err := newStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := store2.Load(reg2); err != nil {
					t.Fatal(err)
				}
				c2, _ := reg2.Get("diff")
				for _, col := range []*Collection{c, c2} {
					state, err := col.Aggregator().MarshalState()
					if err != nil {
						t.Fatal(err)
					}
					states = append(states, state)
					marks = append(marks, string(mustRaw(t, col.dedup.marks())))
				}
				c2.CloseJournal()
			}
			for i, state := range states {
				if !bytes.Equal(state, states[0]) {
					t.Errorf("state %d (%s, replayed=%v)\n%x\ndiffers from the first\n%x", i, routes[i/2].name, i%2 == 1, state, states[0])
				}
			}
			// marks[2r] is route r live, marks[2r+1] the same route replayed.
			if marks[0] != "[]" || marks[2] != "[]" {
				t.Errorf("single-report routes recorded dedup marks: %s / %s", marks[0], marks[2])
			}
			if marks[4] == "[]" || marks[4] != marks[6] {
				t.Errorf("batch routes disagree on dedup marks:\n%s\n%s", marks[4], marks[6])
			}
			for r := range routes {
				if marks[2*r] != marks[2*r+1] {
					t.Errorf("%s: replay recorded %s, live path %s", routes[r].name, marks[2*r+1], marks[2*r])
				}
			}
		})
	}
}

// TestShardedHHAddBatchRacesAdvance drives concurrent AddBatch calls
// against round advances on a bare hh ShardedAggregator — the
// prepare-outside/fold-inside loop now serves the phased task too, so
// the shard-0 aggregator an advance swaps in must only ever be read
// under its lock (run under -race). Whatever interleaving happens, each
// report lands wholly in its round or bounces with ErrWrongRound, and
// the counter equals the lock-walk.
func TestShardedHHAddBatchRacesAdvance(t *testing.T) {
	const writers, perRound, chunk = 4, 120, 10
	agg, err := NewShardedAggregator(hhCfg(4, 0).Config, 4)
	if err != nil {
		t.Fatal(err)
	}
	levels := hhCfg(4, 0).Levels
	var accepted, bounced int
	var mu sync.Mutex
	for round := 0; round < levels; round++ {
		var half, done sync.WaitGroup
		for w := 0; w < writers; w++ {
			envs := goldenHHReports(t, uint64(300+10*round+w), round, perRound)
			half.Add(1)
			done.Add(1)
			go func() {
				defer done.Done()
				for off := 0; off < perRound; off += chunk {
					if off == perRound/2 {
						half.Done() // the advance below now races the rest
					}
					n, err := agg.AddBatch(envs[off : off+chunk])
					if err != nil && !errors.Is(err, task.ErrWrongRound) {
						t.Errorf("round %d: %v", round, err)
					}
					mu.Lock()
					accepted += n
					bounced += chunk - n
					mu.Unlock()
				}
			}()
		}
		half.Wait()
		if err := agg.AdvanceExpecting(round); err != nil {
			t.Fatal(err)
		}
		done.Wait()
	}
	if !agg.Done() || accepted < levels*writers*perRound/2 || accepted+bounced != levels*writers*perRound {
		t.Fatalf("done=%v accepted=%d bounced=%d", agg.Done(), accepted, bounced)
	}
	if agg.Collected() != accepted || agg.collectedWalk() != accepted {
		t.Fatalf("collected %d / walk %d, accepted %d", agg.Collected(), agg.collectedWalk(), accepted)
	}
}
