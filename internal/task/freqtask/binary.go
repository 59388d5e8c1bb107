// Binary wire codec for the frequency task. The binary report
// envelope, the one form a report takes past the HTTP handler, is a
// leading format-version byte, the mechanism name, and the
// mechanism-typed payload — raw packed bit vectors for the unary
// mechanisms instead of base64-in-JSON, varints for the integer
// reports, raw 8-byte words for SHE's noisy reals.
package freqtask

import (
	"encoding/base64"
	"encoding/json"
	"fmt"

	"repro/internal/binenc"
	"repro/internal/bitvec"
	"repro/internal/freq"
)

// binaryEnvelopeVersion tags the binary report envelope layout. It is
// the first payload byte and is checked before anything else is read.
const binaryEnvelopeVersion = 0

// writeEnvelope appends one report of oracle o's mechanism in the
// binary envelope layout: e's fields, or for the unary mechanisms
// bits, the packed bit vector.
func writeEnvelope(w *binenc.Writer, o freq.Oracle, e *Envelope, bits []byte) {
	w.Byte(binaryEnvelopeVersion)
	w.String(e.Mechanism)
	switch o.(type) {
	case *freq.GRR, freq.BinaryRR:
		w.Varint(int64(e.Value))
	case *freq.UE, *freq.THE:
		w.Blob(bits)
	case *freq.SHE:
		w.Float64s(e.Reals)
	case *freq.LH:
		w.Uint64(e.Seed)
		w.Varint(int64(e.Value))
	case *freq.HRR:
		w.Varint(int64(e.Value))
		w.Varint(int64(e.Sign))
	case *freq.SS:
		w.Ints(e.Values)
	}
}

// PrivatizeBinary runs the client half of the oracle on value v and
// encodes the report in the binary envelope layout.
func PrivatizeBinary(o freq.Oracle, v int) ([]byte, error) {
	var e Envelope
	bits, err := privatize(o, v, &e)
	if err != nil {
		return nil, err
	}
	w := binenc.NewWriter()
	defer w.Release()
	writeEnvelope(w, o, &e, bits)
	return append([]byte(nil), w.Bytes()...), nil
}

// Translate implements task.Preparer for the JSON Envelope.
func (a *Aggregator) Translate(w *binenc.Writer, envelope json.RawMessage) error {
	var e Envelope
	if err := json.Unmarshal(envelope, &e); err != nil {
		return fmt.Errorf("freqtask: bad envelope: %w", err)
	}
	var bits []byte
	switch a.oracle.(type) {
	case *freq.UE, *freq.THE:
		var err error
		if bits, err = base64.StdEncoding.DecodeString(e.Bits); err != nil {
			return fmt.Errorf("freqtask: bad bits encoding: %w", err)
		}
	}
	writeEnvelope(w, a.oracle, &e, bits)
	return nil
}

// PrepareBinary implements task.Preparer: it decodes one binary report
// envelope into the typed report the oracle aggregates, applying the
// validation every report gets. It reads only the oracle's immutable
// configuration, so it is safe to run outside the shard locks.
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
		// to an accepted 1.
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
