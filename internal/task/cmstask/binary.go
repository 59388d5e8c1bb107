// Binary wire and state codecs for the sketch task. The CMS row report
// is where the JSON wire format hurts most — m perturbed bits ride as
// base64 of m whole bytes — so the binary envelope packs the row into
// a bit vector (m/8 bytes plus the length word), an ~10× wire
// reduction at Apple-scale widths. The HCMS report is a mechanism tag,
// a row, a coefficient index and a sign.
//
// The state wraps the backing sketch's layout in a {mechanism,
// epsilon, sketch} guard.
package cmstask

import (
	"encoding/base64"
	"encoding/json"
	"fmt"

	"repro/internal/binenc"
	"repro/internal/bitvec"
)

// Layout version tags, each the first byte of its payload and checked
// before anything else is read.
const (
	binaryEnvelopeVersion = 0
	binaryStateVersion    = 0
)

// MarshalState serializes the aggregate state: the adapter guard
// fields followed by the backing sketch's state as one blob.
func (a *Aggregator) MarshalState() ([]byte, error) {
	blob, err := a.cm.MarshalState()
	if err != nil {
		return nil, err
	}
	w := binenc.NewWriter()
	defer w.Release()
	w.Byte(binaryStateVersion)
	w.String(a.mechanism)
	w.Float64(a.params.Epsilon)
	w.Blob(blob)
	return append([]byte(nil), w.Bytes()...), nil
}

// UnmarshalState restores a state blob produced by MarshalState;
// errors leave the receiver unchanged.
func (a *Aggregator) UnmarshalState(data []byte) error {
	r := binenc.NewReader(data)
	version := int(r.Byte())
	if err := r.Err(); err != nil {
		return fmt.Errorf("cmstask: state: %w", err)
	}
	if version != binaryStateVersion {
		return fmt.Errorf("cmstask: binary state version %d not supported", version)
	}
	mechanism := r.String()
	epsilon := r.Float64()
	blob := r.Blob()
	if err := r.Done(); err != nil {
		return fmt.Errorf("cmstask: state: %w", err)
	}
	if mechanism != a.mechanism || epsilon != a.params.Epsilon {
		return fmt.Errorf("cmstask: state parameter mismatch")
	}
	return a.cm.UnmarshalState(blob)
}

// writeEnvelope appends one report of the given mechanism in the binary
// envelope layout: e's fields, and for CMS the row's packed bit vector.
func writeEnvelope(w *binenc.Writer, mechanism string, e Envelope, bits *bitvec.Vector) error {
	w.Byte(binaryEnvelopeVersion)
	w.String(e.Mechanism)
	w.Varint(int64(e.Row))
	if mechanism == MechanismHCMS {
		w.Varint(int64(e.Index))
		w.Varint(int64(e.Sign))
		return nil
	}
	packed, err := bits.MarshalBinary()
	if err != nil {
		return err
	}
	w.Blob(packed)
	return nil
}

// packBits packs a JSON envelope's row — one 0/1 byte per coordinate,
// refused otherwise — into a bit vector.
func packBits(bytes []byte) (*bitvec.Vector, error) {
	v := bitvec.New(len(bytes))
	for i, b := range bytes {
		switch b {
		case 0:
		case 1:
			v.Set(i)
		default:
			return nil, fmt.Errorf("cmstask: report bit %d has value %d, want 0 or 1", i, b)
		}
	}
	return v, nil
}

// unpackBits is packBits' inverse: the row as one 0/1 byte per
// coordinate, as the JSON envelope carries it.
func unpackBits(v *bitvec.Vector) []byte {
	bytes := make([]byte, v.Len())
	for i := range bytes {
		if v.Get(i) {
			bytes[i] = 1
		}
	}
	return bytes
}

// Translate implements task.Preparer for the JSON Envelope.
func (a *Aggregator) Translate(w *binenc.Writer, envelope json.RawMessage) error {
	var e Envelope
	if err := json.Unmarshal(envelope, &e); err != nil {
		return fmt.Errorf("cmstask: bad envelope: %w", err)
	}
	var bits *bitvec.Vector
	if a.mechanism == MechanismCMS {
		raw, err := base64.StdEncoding.DecodeString(e.Bits)
		if err != nil {
			return fmt.Errorf("cmstask: bad bits encoding: %w", err)
		}
		if bits, err = packBits(raw); err != nil {
			return err
		}
	}
	return writeEnvelope(w, a.mechanism, e, bits)
}

// PrepareBinary implements task.Preparer: it decodes one binary report
// envelope — the CMS bit row stays packed — and validates it, reading
// only the immutable parameters.
func (a *Aggregator) PrepareBinary(payload []byte) (any, error) {
	r := binenc.NewReader(payload)
	version := int(r.Byte())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("cmstask: bad binary envelope: %w", err)
	}
	if version != binaryEnvelopeVersion {
		return nil, fmt.Errorf("cmstask: binary envelope version %d not supported", version)
	}
	// The mechanism is a string on the wire; reading it as the blob it
	// is laid out as compares it in place instead of copying it out.
	mechanism := r.Blob()
	if r.Err() == nil && string(mechanism) != a.mechanism {
		return nil, fmt.Errorf("cmstask: envelope mechanism %q does not match aggregator %q", mechanism, a.mechanism)
	}
	row := int(r.Varint())
	if a.mechanism == MechanismCMS {
		raw := r.Blob()
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("cmstask: bad binary envelope: %w", err)
		}
		var bits bitvec.Vector
		if err := bits.UnmarshalBinary(raw); err != nil {
			return nil, err
		}
		if err := a.checkCMSShape(row, bits.Len()); err != nil {
			return nil, err
		}
		return preparedCMS{row: row, bits: bits}, nil
	}
	index := int(r.Varint())
	sign := r.Varint()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("cmstask: bad binary envelope: %w", err)
	}
	return a.prepareHCMSReport(row, index, sign)
}

// ReportBinary privatizes one item into a binary wire envelope, the
// counterpart of Report for binary-negotiated collections. A CMS row
// goes out as the words the client drew, with no byte per coordinate
// in between.
func (c *Client) ReportBinary(item []byte) ([]byte, error) {
	w := binenc.NewWriter()
	defer w.Release()
	var err error
	if c.cms != nil {
		r := c.cms.Report(item)
		err = writeEnvelope(w, MechanismCMS, Envelope{Mechanism: MechanismCMS, Row: r.Row}, r.Bits)
	} else {
		r := c.hcms.Report(item)
		err = writeEnvelope(w, MechanismHCMS, Envelope{Mechanism: MechanismHCMS, Row: r.Row, Index: r.Index, Sign: r.Sign}, nil)
	}
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), w.Bytes()...), nil
}
