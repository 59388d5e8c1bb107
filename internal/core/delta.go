// Delta is the unit of state a relay ships upstream: the merged
// aggregator state it accumulated since its last flush, wrapped in
// enough metadata for the receiver to validate it (task config),
// deduplicate it (ID), and — for phased tasks — refuse it when the
// relay's round view is stale (Round/Done).
//
// On the wire and in the relay outbox a delta is a self-checking
// container mirroring the LDPSNAP5 checkpoint layout:
//
//	"LDPDELTA1" | crc32c(rest) LE | version byte |
//	blob(header JSON, State omitted) | blob(binary task state)
//
// The decoder is version-gated — an unknown container or header
// version is an error, never a guess — and treats the input as hostile
// (it arrives over HTTP): the CRC is checked before any parsing,
// lengths are bounds-checked by binenc, and trailing garbage is
// rejected.
package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"repro/internal/binenc"
	"repro/internal/task"
)

// DeltaVersion is the current delta header version. Bump it when the
// header schema or container layout changes; decoders reject anything
// newer than what they understand.
const DeltaVersion = 1

// deltaMagic brands the binary delta container, versioned like the
// checkpoint magic so a future layout can change the trailing digit.
var deltaMagic = []byte("LDPDELTA1")

// Delta is one relay flush. State carries the merged task state in the
// task's binary layout; Enc is the constant EncBinary, kept in the
// header so containers stay byte-identical to (and accepted by) the
// builds that chose between two state encodings.
type Delta struct {
	Version    int    `json:"version"`
	Collection string `json:"collection"`
	// ID is the idempotency key for this flush. The upstream records it
	// in the same dedup index batches use, so a retried delta folds
	// exactly once no matter how many times the relay resends it.
	ID      string      `json:"id,omitempty"`
	Config  task.Config `json:"config"`
	Reports int         `json:"reports"`
	// Round and Done pin the phased-protocol position the state was cut
	// at; the upstream rejects a mismatch with 409 so the relay
	// refetches the frontier instead of polluting a different round.
	Round int    `json:"round,omitempty"`
	Done  bool   `json:"done,omitempty"`
	Enc   string `json:"enc,omitempty"`
	State []byte `json:"state"`
}

// EncodeDeltaBinary packs d into the self-checking binary container.
func EncodeDeltaBinary(d Delta) ([]byte, error) {
	header := d
	header.State = nil
	hdr, err := json.Marshal(header)
	if err != nil {
		return nil, fmt.Errorf("core: encode delta header: %w", err)
	}
	w := binenc.NewWriter()
	defer w.Release()
	w.Byte(DeltaVersion)
	w.Blob(hdr)
	w.Blob(d.State)
	body := w.Bytes()

	blob := make([]byte, 0, len(deltaMagic)+4+len(body))
	blob = append(blob, deltaMagic...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(body, crcTable))
	blob = append(blob, crc[:]...)
	return append(blob, body...), nil
}

// DecodeDeltaBinary unpacks a binary delta container. The returned
// Delta owns its State (no aliasing of blob).
func DecodeDeltaBinary(blob []byte) (Delta, error) {
	if !bytes.HasPrefix(blob, deltaMagic) {
		return Delta{}, fmt.Errorf("core: not a binary delta container")
	}
	body := blob[len(deltaMagic):]
	if len(body) < 4 {
		return Delta{}, fmt.Errorf("core: binary delta truncated before checksum")
	}
	sum := binary.LittleEndian.Uint32(body[:4])
	body = body[4:]
	if got := crc32.Checksum(body, crcTable); got != sum {
		return Delta{}, fmt.Errorf("core: binary delta checksum mismatch: got %08x want %08x", got, sum)
	}
	r := binenc.NewReader(body)
	version := r.Byte()
	if err := r.Err(); err != nil {
		return Delta{}, fmt.Errorf("core: binary delta: %w", err)
	}
	if version != DeltaVersion {
		return Delta{}, fmt.Errorf("core: unsupported binary delta version %d (max %d)", version, DeltaVersion)
	}
	hdr := r.Blob()
	state := r.Blob()
	if err := r.Err(); err != nil {
		return Delta{}, fmt.Errorf("core: binary delta: %w", err)
	}
	if err := r.Done(); err != nil {
		return Delta{}, fmt.Errorf("core: binary delta: %w", err)
	}
	var d Delta
	if err := json.Unmarshal(hdr, &d); err != nil {
		return Delta{}, fmt.Errorf("core: binary delta header: %w", err)
	}
	if d.Version != DeltaVersion {
		return Delta{}, fmt.Errorf("core: unsupported delta header version %d (max %d)", d.Version, DeltaVersion)
	}
	if d.Enc != EncBinary {
		return Delta{}, fmt.Errorf("core: unsupported delta state encoding %q", d.Enc)
	}
	d.State = append([]byte(nil), state...)
	return d, nil
}

// CheckDeltaConfig verifies that a delta targets the collection it is
// being folded into: same task type and identical task configuration.
// A mismatch is a client error (the relay mirrored a different
// collection) and maps to a plain 400, never a fold attempt — Merge
// would reject it too, but with a less direct message and only after
// the state was journaled.
func (c *Collection) CheckDeltaConfig(d Delta) error {
	want := c.cfg.Config
	want.Task = want.Type()
	got := d.Config
	got.Task = got.Type()
	if got.Task != want.Task {
		return fmt.Errorf("core: delta task type %q does not match collection %q task %q",
			got.Task, c.name, want.Task)
	}
	if got != want {
		return fmt.Errorf("core: delta task config %+v does not match collection %q config %+v",
			got, c.name, want)
	}
	return nil
}
