// Read-only compatibility with what builds before the single state
// codec wrote: JSON checkpoint files (envelope versions 0–4) and
// journal merge frames whose delta state is JSON. Both carry a task
// state in the task's legacy JSON format; this file re-encodes that
// state in the binary layout and hands the result to the ordinary
// restore path, so nothing outside it knows the old formats existed.
// Nothing here writes: a legacy file is upgraded by the checkpoint
// that follows its load (Store.Load withholds the saved-epoch entry so
// that checkpoint happens even for an idle collection), after which
// this file is no longer entered for that collection.
//
// Checkpoint envelope history:
//
//	0 (absent) — pre-task checkpoints: the config carries no task tag
//	             (all collections were frequency surveys) and the state
//	             blob is a freq oracle state. The missing tag resolves
//	             to the freq task, whose legacy state format is the
//	             oracle state byte for byte.
//	2          — task-tagged checkpoints: the config names a task type
//	             and the state blob is that task's adapter state.
//	3          — phase-aware checkpoints: for phased (multi-round)
//	             tasks the envelope additionally records the round
//	             number and published frontier the state was captured
//	             at, cross-checked on restore so a protocol never
//	             silently resumes at the wrong round.
//	4          — checksummed checkpoints: the file is a wrapper
//	             {version, crc32c, snapshot} whose CRC32C covers the
//	             inner snapshot bytes verbatim, so bit rot is detected
//	             rather than restored. The inner snapshot additionally
//	             records the journal rotation point (journal_gen) and
//	             the acknowledged batch IDs (batches).
//	5          — the binary container persist.go reads and writes.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/task"
)

// legacyChecksummedVersion is the envelope version that introduced the
// snapshotFile wrapper; files below it are bare snapshots.
const legacyChecksummedVersion = 4

// snapshotFile is the version-4 on-disk wrapper: the inner snapshot's
// bytes verbatim plus their CRC32C.
type snapshotFile struct {
	Version  int             `json:"version"`
	CRC32C   uint32          `json:"crc32c"`
	Snapshot json.RawMessage `json:"snapshot"`
}

// decodeLegacySnapshot parses a version 0–4 JSON snapshot file,
// verifying the version-4 wrapper's checksum, and returns it with its
// State re-encoded in the binary layout.
func decodeLegacySnapshot(blob []byte) (CollectionSnapshot, error) {
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(blob, &probe); err != nil {
		return CollectionSnapshot{}, fmt.Errorf("neither a binary container nor a JSON snapshot: %w", err)
	}
	if probe.Version > SnapshotVersion {
		return CollectionSnapshot{}, fmt.Errorf("version %d is newer than this build's %d", probe.Version, SnapshotVersion)
	}
	inner := blob // versions 0–3: a bare pre-checksum snapshot
	if probe.Version >= legacyChecksummedVersion {
		var file snapshotFile
		if err := json.Unmarshal(blob, &file); err != nil {
			return CollectionSnapshot{}, err
		}
		if len(file.Snapshot) == 0 {
			return CollectionSnapshot{}, errors.New("checksummed wrapper carries no snapshot")
		}
		if sum := crc32.Checksum(file.Snapshot, crcTable); sum != file.CRC32C {
			return CollectionSnapshot{}, fmt.Errorf("checksum mismatch: file says %08x, contents hash to %08x", file.CRC32C, sum)
		}
		inner = file.Snapshot
	}
	var snap CollectionSnapshot
	if err := json.Unmarshal(inner, &snap); err != nil {
		return CollectionSnapshot{}, err
	}
	if snap.Version > SnapshotVersion {
		return CollectionSnapshot{}, fmt.Errorf("version %d is newer than this build's %d", snap.Version, SnapshotVersion)
	}
	if len(snap.State) > 0 {
		state, err := upgradeLegacyState(snap.Config.Config, snap.State)
		if err != nil {
			return CollectionSnapshot{}, err
		}
		snap.State = state
	}
	return snap, nil
}

// upgradeLegacyState re-encodes a task state from the task's legacy
// JSON format into its binary layout, by restoring it onto a scratch
// aggregator of the same configuration. Exact: the legacy decoder and
// the binary decoder install states through one validation path.
func upgradeLegacyState(cfg task.Config, legacy []byte) ([]byte, error) {
	agg, err := task.New(cfg)
	if err != nil {
		return nil, err
	}
	ls, ok := agg.(task.LegacyStater)
	if !ok {
		return nil, fmt.Errorf("core: task %q has no legacy JSON state format", cfg.Type())
	}
	if err := ls.UnmarshalLegacyState(legacy); err != nil {
		return nil, err
	}
	return agg.MarshalState()
}
