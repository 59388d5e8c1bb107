// Package envelopeversion is the ldplint envelopeversion fixture:
// UnmarshalState implementations with and without a version gate, the
// delegation shapes the analyzer follows, and the waiver escape hatch.
package envelopeversion

import (
	"encoding/json"
	"fmt"
)

type state struct {
	V int `json:"v,omitempty"`
	N int `json:"n"`
}

type guarded struct{ n int }

// UnmarshalState reads its version byte into a local named "version"
// and compares before the payload — the binary-codec shape.
func (g *guarded) UnmarshalState(data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("empty state")
	}
	version := int(data[0])
	if version != 0 {
		return fmt.Errorf("unsupported state version %d", version)
	}
	g.n = len(data) - 1
	return nil
}

type unguarded struct{ n int }

// UnmarshalState trusts whatever layout revision wrote the blob.
func (u *unguarded) UnmarshalState(data []byte) error { // want `UnmarshalState accepts any state version`
	u.n = len(data)
	return nil
}

type delegating struct{ n int }

// UnmarshalState defers to a same-package helper whose switch gates
// the version; the analyzer follows the hop.
func (d *delegating) UnmarshalState(data []byte) error { return d.decode(data) }

func (d *delegating) decode(data []byte) error {
	var st state
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	switch st.V {
	case 0:
	default:
		return fmt.Errorf("unsupported state version %d", st.V)
	}
	d.n = st.N
	return nil
}

type inner interface {
	UnmarshalState([]byte) error
}

type wrapper struct{ in inner }

// UnmarshalState delegates through an interface, the task-adapter
// shape: the format owner enforces the guard in its own package.
func (w *wrapper) UnmarshalState(data []byte) error { return w.in.UnmarshalState(data) }

type passthrough struct{ raw []byte }

// UnmarshalState keeps no structured state, so there is no tag to
// gate on; the waiver records why.
func (p *passthrough) UnmarshalState(data []byte) error { //ldplint:ok envelopeversion raw passthrough keeps no structured state
	p.raw = append(p.raw[:0], data...)
	return nil
}
