// Binary wire codec for the mean task. A mean report is tiny — a
// mechanism tag, a coordinate, and one float64 — so the binary
// envelope is a fixed handful of bytes: a leading format-version byte,
// the mechanism name, the varint coordinate, and the raw 8-byte value.
package meantask

import (
	"encoding/json"
	"fmt"

	"repro/internal/binenc"
)

// binaryEnvelopeVersion tags the binary report envelope layout. It is
// the first payload byte and is checked before anything else is read.
const binaryEnvelopeVersion = 0

// writeEnvelope appends e in the binary envelope layout.
func writeEnvelope(w *binenc.Writer, e Envelope) {
	w.Byte(binaryEnvelopeVersion)
	w.String(e.Mechanism)
	w.Varint(int64(e.Coord))
	w.Float64(e.Value)
}

// Translate implements task.Preparer for the JSON Envelope.
func (a *Aggregator) Translate(w *binenc.Writer, envelope json.RawMessage) error {
	var e Envelope
	if err := json.Unmarshal(envelope, &e); err != nil {
		return fmt.Errorf("meantask: bad envelope: %w", err)
	}
	writeEnvelope(w, e)
	return nil
}

// PrepareBinary implements task.Preparer: it decodes one binary report
// envelope and validates it, reading only the immutable configuration.
func (a *Aggregator) PrepareBinary(payload []byte) (any, error) {
	r := binenc.NewReader(payload)
	version := int(r.Byte())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("meantask: bad binary envelope: %w", err)
	}
	if version != binaryEnvelopeVersion {
		return nil, fmt.Errorf("meantask: binary envelope version %d not supported", version)
	}
	var e Envelope
	e.Mechanism = r.String()
	e.Coord = int(r.Varint())
	e.Value = r.Float64()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("meantask: bad binary envelope: %w", err)
	}
	return a.prepareEnvelope(e)
}

// ReportBinary privatizes one record into a binary wire envelope,
// the counterpart of Report for binary-negotiated collections.
func (c *Client) ReportBinary(x []float64) ([]byte, error) {
	e, err := c.envelope(x)
	if err != nil {
		return nil, err
	}
	w := binenc.NewWriter()
	defer w.Release()
	writeEnvelope(w, e)
	return append([]byte(nil), w.Bytes()...), nil
}
