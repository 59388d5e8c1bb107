package core

// Shared helpers for the core test suite: marshaling typed freq
// envelopes into the raw JSON the task-generic aggregator ingests,
// reading frequency counts back out of a task aggregator, and the
// (mechanism, PrivacyParams) shorthands for freqtask's constructors.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"log"
	"os"
	"testing"

	"repro/internal/binenc"
	"repro/internal/freq"
	"repro/internal/fsio"
	"repro/internal/ldprand"
	"repro/internal/task"
	"repro/internal/task/freqtask"
)

// newOracle builds a frequency oracle by registry name from the
// PrivacyParams the suite's fixtures are written in.
func newOracle(name string, p PrivacyParams, src ldprand.Source) (freq.Oracle, error) {
	return freqtask.NewOracle(name, p.Epsilon, p.Domain, src)
}

// newStore opens a state directory on the real filesystem with the
// default journal policy.
func newStore(dir string) (*Store, error) {
	return NewStoreFS(dir, fsio.OS, JournalSyncEvery)
}

// defaultAggregator returns the sharded aggregator of the service's
// default collection.
func defaultAggregator(t testing.TB, s *Service) *ShardedAggregator {
	t.Helper()
	c, ok := s.reg.Get(DefaultCollection)
	if !ok {
		t.Fatal("service has no default collection")
	}
	return c.Aggregator()
}

// reportAll privatizes each value into its own wire envelope.
func reportAll(t testing.TB, c *Client, values []int) []freqtask.Envelope {
	t.Helper()
	envs := make([]freqtask.Envelope, len(values))
	for i, v := range values {
		env, err := c.Report(v)
		if err != nil {
			t.Fatal(err)
		}
		envs[i] = env
	}
	return envs
}

// newFreqService returns a single-survey frequency service: the survey
// is the default collection, reachable through both the flat and the
// /collections routes.
func newFreqService(mechanism string, p PrivacyParams, shards int) (*Service, error) {
	reg := NewCollectionRegistry()
	if _, err := reg.Create(DefaultCollection, FreqCollectionConfig(mechanism, p, shards)); err != nil {
		return nil, err
	}
	return NewMultiService(reg, nil), nil
}

// mustRaw marshals any value (an Envelope, a task envelope struct)
// into the raw JSON report form the aggregation stack ingests.
func mustRaw(t testing.TB, v any) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// rawEnvs marshals a slice of freq envelopes into raw JSON reports.
func rawEnvs(t testing.TB, envs []freqtask.Envelope) []json.RawMessage {
	t.Helper()
	out := make([]json.RawMessage, len(envs))
	for i := range envs {
		out[i] = mustRaw(t, envs[i])
	}
	return out
}

// freqCounts extracts the debiased count estimates from a frequency
// task aggregator.
func freqCounts(t testing.TB, a task.Aggregator) []float64 {
	t.Helper()
	raw, err := a.Estimate(nil)
	if err != nil {
		t.Fatal(err)
	}
	var res freqtask.EstimateResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	return res.Counts
}

// readSnapshotFile reads and decodes a snapshot file, failing the test
// on corruption.
func readSnapshotFile(t testing.TB, path string) CollectionSnapshot {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := decodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// writeSnapshotFile writes a properly framed (checksummed) snapshot
// file in whichever encoding the snapshot carries — the forgery helper
// for tests that corrupt a specific field rather than the framing.
func writeSnapshotFile(t testing.TB, path string, snap CollectionSnapshot) {
	t.Helper()
	blob, err := encodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// claimVersion rewrites a snapshot file as the same container — sound
// magic, length and checksum — whose header claims another envelope
// version.
func claimVersion(t testing.TB, path string, version int) {
	t.Helper()
	snap := readSnapshotFile(t, path)
	snap.Version = version
	blob, err := encodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// captureLog redirects the process log into a buffer for the rest of
// the test, for refusals whose log line is the operator's only hint.
func captureLog(t testing.TB) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf)
	t.Cleanup(func() { log.SetOutput(prev) })
	return &buf
}

// frameBytes returns rec's frame as the journal writes it.
func frameBytes(t testing.TB, rec journalRecord) []byte {
	t.Helper()
	w, err := frame(rec)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Release()
	return bytes.Clone(w.Bytes())
}

// framePayload wraps arbitrary payload bytes in a sound header: the
// forgery helper for frames no current encoder writes — a JSON payload
// of an older build, a kind byte of a newer one, checksummed junk.
func framePayload(payload []byte) []byte {
	buf := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// jsonBatchFrame forges the 0x01 frame older builds wrote for a batch
// of JSON envelopes, as received.
func jsonBatchFrame(id string, envs ...json.RawMessage) []byte {
	var w binenc.Writer
	w.Byte(kindBatchJSON)
	w.String(id)
	w.Uvarint(uint64(len(envs)))
	for _, env := range envs {
		w.Blob(env)
	}
	return framePayload(w.Bytes())
}

// parseFrames walks a segment's bytes and returns the decoded records
// plus the offset of the first frame that is torn or unreadable (==
// len(data) when the whole segment reads).
func parseFrames(data []byte) (recs []journalRecord, goodLen int) {
	off := 0
	for {
		rec, n, err := nextFrame(data[off:])
		if err != nil {
			return recs, off
		}
		recs = append(recs, rec)
		off += n
	}
}
