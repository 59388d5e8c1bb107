package core

// Allocation pins and micro-benchmarks for the journal's two kernels,
// frame encode (the live path's append) and frame decode + fold
// (replay), on the three batch shapes the end-to-end harness drives
// (grr20's JSON envelopes as the binary payloads they translate to):
//
//	go test -run '^$' -bench 'Journal|Replay' ./internal/core/
//
// regenerates the figures README "Benchmarks" quotes for them.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/fsio"
	"repro/internal/ldprand"
	"repro/internal/task"
	"repro/internal/task/cmstask"
)

// benchBatches are bench/ldpload's batch shapes: grr_small_batch's 20
// JSON GRR envelopes, olh_large_batch's 500 binary OLH reports and
// sketch_read_write's 100 binary 1024×128 CMS reports.
var benchBatches = []struct {
	name string
	cfg  CollectionConfig
	n    int
	bin  bool
}{
	{"grr20", FreqCollectionConfig(MechanismGRR, PrivacyParams{Epsilon: 2, Domain: 64}, 1), 20, false},
	{"olh500", FreqCollectionConfig(MechanismOLH, PrivacyParams{Epsilon: 2, Domain: 1024}, 1), 500, true},
	{"cms100", CollectionConfig{Shards: 1, Config: task.Config{
		Task: task.TypeSketch, Mechanism: cmstask.MechanismCMS, Epsilon: 2, Width: 1024, Hashes: 128,
	}}, 100, true},
}

// benchRecord privatizes one batch of n reports under cfg into the
// record the HTTP layer would hand Collection.ingest.
func benchRecord(tb testing.TB, cfg CollectionConfig, n int, bin bool) journalRecord {
	tb.Helper()
	src := ldprand.NewSplitMix64(7)
	var report func(i int) ([]byte, error) // the i-th report in the batch's encoding
	if cfg.Task == task.TypeSketch {
		client, err := cmstask.NewClient(cfg.Config, src)
		if err != nil {
			tb.Fatal(err)
		}
		report = func(i int) ([]byte, error) {
			item := []byte(fmt.Sprintf("item-%d", i%17))
			if bin {
				return client.ReportBinary(item)
			}
			return client.Report(item)
		}
	} else {
		client, err := NewClient(cfg.Mechanism, cfg.Params(), src)
		if err != nil {
			tb.Fatal(err)
		}
		report = func(i int) ([]byte, error) {
			if bin {
				return client.ReportBinary(i % cfg.Domain)
			}
			env, err := client.Report(i % cfg.Domain)
			if err != nil {
				return nil, err
			}
			return json.Marshal(env)
		}
	}
	rec := journalRecord{Kind: kindBatch, ID: "bench-batch-0001"}
	var envs []json.RawMessage
	for i := 0; i < n; i++ {
		payload, err := report(i)
		if err != nil {
			tb.Fatal(err)
		}
		if bin {
			rec.Bins = append(rec.Bins, payload)
		} else {
			envs = append(envs, payload)
		}
	}
	if !bin {
		// JSON reports reach ingest as IngestBatch hands them on: translated.
		agg, err := NewShardedAggregator(cfg.Config, 1)
		if err != nil {
			tb.Fatal(err)
		}
		t := agg.translate(envs)
		for _, payload := range t.bins {
			rec.Bins = append(rec.Bins, bytes.Clone(payload))
		}
		t.w.Release()
	}
	return rec
}

// TestFrameAllocs pins the two kernels' allocations on a 100-report
// CMS batch (about 142 B a report): encoding draws its buffer from binenc's
// pool and allocates nothing once the pool is warm; decoding allocates
// the idempotency key and one slice of slices into the bytes it was
// handed — no copy of the payloads.
func TestFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	cms := benchBatches[2]
	rec := benchRecord(t, cms.cfg, cms.n, cms.bin)
	if size := len(rec.Bins[0]); len(rec.Bins) != 100 || size < 140 || size > 144 {
		t.Fatalf("batch is %d reports of %d bytes, want 100 of about 142", len(rec.Bins), size)
	}
	buf := frameBytes(t, rec) // warms the pool
	if allocs := testing.AllocsPerRun(100, func() {
		w, err := frame(rec)
		if err != nil {
			t.Fatal(err)
		}
		w.Release()
	}); allocs > 1 {
		t.Errorf("frame: %v allocs per batch, want at most 1", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if got, _, err := nextFrame(buf); err != nil || len(got.Bins) != len(rec.Bins) {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("nextFrame: %v allocs per batch, want at most 2", allocs)
	}
}

// BenchmarkJournalAppend times journal.append — encode, checksum, one
// write, no fsync — per batch and reports the journal's bytes per
// report. Segments are dropped as they fill so the benchmark's
// footprint stays a few mebibytes however long it runs.
func BenchmarkJournalAppend(b *testing.B) {
	for _, bb := range benchBatches {
		b.Run(bb.name, func(b *testing.B) {
			rec := benchRecord(b, bb.cfg, bb.n, bb.bin)
			j := newJournal(fsio.OS, b.TempDir(), "bench", 1, JournalSyncNone)
			defer j.close()
			var written int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := j.append(rec); err != nil {
					b.Fatal(err)
				}
				if _, lag := j.lag(); lag > 8<<20 {
					b.StopTimer()
					written += lag
					if err := j.dropBefore(j.rotate()); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
			b.StopTimer()
			_, lag := j.lag()
			b.ReportMetric(float64(written+lag)/float64(b.N*bb.n), "B/report")
		})
	}
}

// BenchmarkReplayFrames times what replay does with one batch frame of
// a segment already in memory — checksum, decode, fold into the
// restored aggregator, re-record the dedup mark — per report.
func BenchmarkReplayFrames(b *testing.B) {
	for _, bb := range benchBatches {
		b.Run(bb.name, func(b *testing.B) {
			buf := frameBytes(b, benchRecord(b, bb.cfg, bb.n, bb.bin))
			c, err := NewCollectionRegistry().Create("bench", bb.cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec, _, err := nextFrame(buf)
				if err != nil {
					b.Fatal(err)
				}
				if err := c.replayRecord(rec, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if got := c.Aggregator().Collected(); got != b.N*bb.n {
				b.Fatalf("replay folded %d reports, want %d", got, b.N*bb.n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bb.n), "ns/report")
		})
	}
}
