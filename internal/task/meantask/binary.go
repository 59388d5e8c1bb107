// Binary wire codec for the mean task. A mean report is tiny — a mechanism tag, a coordinate, and one float64 — so the
// binary envelope is a fixed handful of bytes: a leading
// format-version byte, the mechanism name, the varint coordinate, and
// the raw 8-byte value. Decoding feeds the same prepareEnvelope
// validation as the JSON path.
package meantask

import (
	"fmt"

	"repro/internal/binenc"
)

// binaryEnvelopeVersion tags the binary report envelope layout. It is
// the first payload byte and is checked before anything else is read.
const binaryEnvelopeVersion = 0

// PrepareBinary implements task.BinaryReporter: it decodes one binary
// report envelope and applies exactly the validation the JSON Prepare
// applies, reading only the immutable configuration.
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
	w.Byte(binaryEnvelopeVersion)
	w.String(e.Mechanism)
	w.Varint(int64(e.Coord))
	w.Float64(e.Value)
	return append([]byte(nil), w.Bytes()...), nil
}
