// Binary wire and state codecs for the sketch task. The CMS row report
// is where the JSON wire format hurts most — m perturbed bits ride as
// base64 of m whole bytes — so the binary envelope packs the row into
// a bit vector (m/8 bytes plus the length word), an ~10× wire
// reduction at Apple-scale widths. The HCMS report is a mechanism tag,
// a row, a coefficient index and a sign. Both decode paths feed the
// same prepare validation as the JSON envelope.
//
// The state wraps the backing sketch's layout in a {mechanism,
// epsilon, sketch} guard.
package cmstask

import (
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

// PrepareBinary implements task.BinaryReporter: it decodes one binary
// report envelope — the CMS bit row stays packed — and applies exactly
// the validation the JSON Prepare applies, reading only the immutable
// parameters.
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
// counterpart of Report for binary-negotiated collections.
func (c *Client) ReportBinary(item []byte) ([]byte, error) {
	w := binenc.NewWriter()
	defer w.Release()
	w.Byte(binaryEnvelopeVersion)
	if c.cms != nil {
		r := c.cms.Report(item)
		v := bitvec.New(len(r.Bits))
		for i, b := range r.Bits {
			if b == 1 {
				v.Set(i)
			}
		}
		packed, err := v.MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.String(MechanismCMS)
		w.Varint(int64(r.Row))
		w.Blob(packed)
	} else {
		r := c.hcms.Report(item)
		w.String(MechanismHCMS)
		w.Varint(int64(r.Row))
		w.Varint(int64(r.Index))
		w.Varint(int64(r.Sign))
	}
	return append([]byte(nil), w.Bytes()...), nil
}
