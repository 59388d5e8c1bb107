// Binary wire codec for the frequency task. The binary report
// envelope replaces the JSON Envelope on collections negotiated
// to application/x-ldp-binary: a leading format-version byte, the
// mechanism name, and the mechanism-typed payload — raw packed bit
// vectors for the unary mechanisms instead of base64-in-JSON, varints
// for the integer reports, raw 8-byte words for SHE's noisy reals.
// Decoding feeds the exact validation the JSON path uses
// (prepareEnvelope / decodeBits), so the two wire forms accept and
// reject identical report populations.
package freqtask

import (
	"fmt"

	"repro/internal/binenc"
	"repro/internal/bitvec"
	"repro/internal/freq"
)

// binaryEnvelopeVersion tags the binary report envelope layout. It is
// the first payload byte and is checked before anything else is read.
const binaryEnvelopeVersion = 0

// PrivatizeBinary runs the client half of the oracle on value v and
// encodes the report in the binary envelope layout.
func PrivatizeBinary(o freq.Oracle, v int) ([]byte, error) {
	w := binenc.NewWriter()
	defer w.Release()
	w.Byte(binaryEnvelopeVersion)
	w.String(o.Name())
	switch m := o.(type) {
	case *freq.GRR:
		w.Varint(int64(m.Privatize(v)))
	case freq.BinaryRR:
		w.Varint(int64(m.Privatize(v)))
	case *freq.UE:
		bits, err := m.Privatize(v).MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.Blob(bits)
	case *freq.SHE:
		w.Float64s(m.Privatize(v))
	case *freq.THE:
		bits, err := m.Privatize(v).MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.Blob(bits)
	case *freq.LH:
		r := m.Privatize(v)
		w.Uint64(r.Seed)
		w.Varint(int64(r.Bucket))
	case *freq.HRR:
		r := m.Privatize(v)
		w.Varint(int64(r.Index))
		w.Varint(int64(r.Sign))
	case *freq.SS:
		w.Ints(m.Privatize(v))
	default:
		return nil, fmt.Errorf("freqtask: unsupported oracle type %T", o)
	}
	return append([]byte(nil), w.Bytes()...), nil
}

// PrepareBinary implements task.BinaryReporter: it decodes one binary
// report envelope into the typed report the oracle aggregates, applying
// exactly the validation the JSON Prepare applies. Like Prepare it
// reads only the oracle's immutable configuration, so it is safe to
// run outside the shard locks.
func (a *Aggregator) PrepareBinary(payload []byte) (any, error) {
	r := binenc.NewReader(payload)
	version := int(r.Byte())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("freqtask: bad binary envelope: %w", err)
	}
	if version != binaryEnvelopeVersion {
		return nil, fmt.Errorf("freqtask: binary envelope version %d not supported", version)
	}
	mech := r.String()
	if r.Err() == nil && mech != a.oracle.Name() {
		return nil, fmt.Errorf("freqtask: envelope mechanism %q does not match oracle %q", mech, a.oracle.Name())
	}
	e := Envelope{Mechanism: mech}
	var rawBits []byte
	switch m := a.oracle.(type) {
	case *freq.GRR, freq.BinaryRR:
		e.Value = int(r.Varint())
	case *freq.UE, *freq.THE:
		rawBits = r.Blob()
	case *freq.SHE:
		e.Reals = r.Float64s()
	case *freq.LH:
		e.Seed = r.Uint64()
		e.Value = int(r.Varint())
	case *freq.HRR:
		e.Value = int(r.Varint())
		// Judge the sign at full width: narrowing first would wrap −255
		// to an accepted 1, a report the JSON decoder refuses.
		sign := r.Varint()
		if r.Err() == nil && sign != 1 && sign != -1 {
			return nil, fmt.Errorf("freqtask: HRR sign %d must be ±1", sign)
		}
		e.Sign = int8(sign)
	case *freq.SS:
		e.Values = r.Ints()
	default:
		return nil, fmt.Errorf("freqtask: unsupported oracle type %T", m)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("freqtask: bad binary envelope: %w", err)
	}
	if rawBits != nil {
		return decodeBitsRaw(rawBits, a.oracle.Domain())
	}
	return prepareEnvelope(a.oracle, e)
}

// decodeBitsRaw parses a packed bit-vector payload (the bitvec binary
// form the unary mechanisms transport) and checks its length.
func decodeBitsRaw(raw []byte, wantLen int) (*bitvec.Vector, error) {
	var v bitvec.Vector
	if err := v.UnmarshalBinary(raw); err != nil {
		return nil, err
	}
	if v.Len() != wantLen {
		return nil, fmt.Errorf("freqtask: bit vector length %d, want %d", v.Len(), wantLen)
	}
	return &v, nil
}
