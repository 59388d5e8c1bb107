package core

// Native fuzzing for the journal replay path: nextFrame faces whatever
// bytes a crash, bit rot, an older or newer build, or a hostile disk
// leaves in a segment file, and replay must never refuse startup — so
// the parser must never panic, must report a sound-prefix length it can
// stand behind, must not let a length prefix size an allocation, and
// every record it does accept must survive re-framing. The formats
// older builds wrote — JSON payloads and 0x01 batches — are seeds of
// the refused kind: sound frames, never accepted.

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
)

// sameRecord compares two records field by field, an empty slice equal
// to a nil one: a record built in memory may hold nil where one read
// back holds a zero-length blob.
func sameRecord(a, b journalRecord) bool {
	if a.Kind != b.Kind || a.ID != b.ID || a.Round != b.Round || a.Reports != b.Reports ||
		!bytes.Equal(a.State, b.State) || !bytes.Equal(a.Frontier, b.Frontier) || len(a.Bins) != len(b.Bins) {
		return false
	}
	for i := range a.Bins {
		if !bytes.Equal(a.Bins[i], b.Bins[i]) {
			return false
		}
	}
	return true
}

func FuzzJournalFrames(f *testing.F) {
	mk := func(recs ...journalRecord) []byte {
		var buf []byte
		for _, r := range recs {
			buf = append(buf, frameBytes(f, r)...)
		}
		return buf
	}
	// A 0x01 batch, as builds before the edge translation wrote it: refused.
	batch := jsonBatchFrame("batch-1", json.RawMessage(`{"task":"hh","payload":"AQID"}`))
	adv := journalRecord{Kind: kindAdvance, Round: 3}
	whole := append(bytes.Clone(batch), mk(adv)...)
	f.Add([]byte{})
	f.Add(mk(adv))
	f.Add(whole)
	f.Add(whole[:5])            // torn inside a header
	f.Add(whole[:len(whole)-3]) // torn inside the last frame
	corrupt := bytes.Clone(batch)
	corrupt[10] ^= 0x40 // flip a payload bit: checksum must catch it
	f.Add(corrupt)
	// The other binary kinds, and a frame from a build that knows more.
	f.Add(mk(
		journalRecord{Kind: kindBatch, ID: "bin-1", Bins: [][]byte{{1, 2, 3}, {}, {0xff}}},
		journalRecord{Kind: kindMerge, ID: "m-1", State: []byte{0, 1, 2, 3}, Reports: 40},
		journalRecord{Kind: kindFlush, ID: "f-1", Reports: 40, Round: 2},
		journalRecord{Kind: kindAdopt, Round: 2, Frontier: json.RawMessage(`{"round":2}`)},
	))
	f.Add(append(framePayload([]byte{0xEE, 0, 1, 2}), whole...))
	f.Add(framePayload([]byte{kindBatch, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})) // a count no payload could hold
	// JSON payloads as builds up to 71ad1eb wrote them, one per kind: refused.
	for _, payload := range []string{
		`{"kind":"batch","id":"j-1","envs":[{"mechanism":"<GRR&>","value":1},null]}`,
		`{"kind":"batch","enc":"bin","bins":["AQID",null,""]}`,
		`{"kind":"advance","round":3}`,
		`{"kind":"merge","id":"m-1","enc":"bin","state":"AAECAw==","reports":40}`,
		`{"kind":"merge","id":"m-0","state":"e30=","reports":1}`,
		`{"kind":"flush","id":"f-1","round":2,"reports":40}`,
		`{"kind":"adopt","round":2,"frontier":{"round":2}}`,
	} {
		f.Add(append(framePayload([]byte(payload)), mk(adv)...))
	}

	// Bare payloads, for the direct decode below.
	f.Add(batch[8:])
	f.Add([]byte(`{"kind":"flush","id":"f-1","round":2,"reports":40}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, good := parseFrames(data)
		// The checksum keeps almost every mutation out of the decoder, so
		// the input is also handed to it directly, as a payload.
		if len(data) > 0 {
			if rec, err := decodeRecord(data); err == nil {
				recs = append(recs, rec)
			}
		}
		runtime.ReadMemStats(&after)
		// A record is slices into data plus one slice header per report,
		// and a report takes at least a byte. Anything beyond a small
		// multiple of the input was sized by a length prefix, not by
		// bytes present.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 128*uint64(len(data))+1<<16 {
			t.Fatalf("parsing %d bytes allocated %d", len(data), grew)
		}
		if good < 0 || good > len(data) {
			t.Fatalf("goodLen %d outside [0,%d]", good, len(data))
		}
		// The sound prefix is exactly reparseable: replay truncates to
		// goodLen and must see the same records again.
		again, g2 := parseFrames(data[:good])
		if g2 != good {
			t.Fatalf("prefix reparse: goodLen %d, want %d", g2, good)
		}
		for i, rec := range again {
			if !sameRecord(rec, recs[i]) {
				t.Fatalf("record %d changed across reparse", i)
			}
		}
		for i, rec := range recs {
			// Every accepted record re-frames, reads back equal, and that
			// frame is already canonical — so nothing this build reads is
			// a format it does not write.
			b := frameBytes(t, rec)
			if b[8] == '{' {
				t.Fatalf("record %d: re-framed payload begins with '{'", i)
			}
			rec2, n, err := nextFrame(b)
			if err != nil || n != len(b) {
				t.Fatalf("record %d: re-framed bytes did not parse back (%v)", i, err)
			}
			if !sameRecord(rec2, rec) {
				t.Fatalf("record %d: re-framed as %+v, was %+v", i, rec2, rec)
			}
			if b2 := frameBytes(t, rec2); !bytes.Equal(b, b2) {
				t.Fatalf("record %d: frame not canonical after one round trip", i)
			}
		}
	})
}
