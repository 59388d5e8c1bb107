// State codec for the frequency oracles. Each mechanism's layout is a
// leading format-version byte, the mechanism name, ε, d, the
// mechanism's own parameters, and then its state: for the counting
// oracles the tally.Tally layout (n, then varint-packed cells; LH holds
// one fixed byte between the two), for SHE and HRR the report count and
// a packed float vector. A decoder reads every field, refuses a state
// that does not belong on the receiver — another mechanism or other
// parameters, a vector of the wrong length, tallies no multiset of
// reports could have produced (tally.Check: a cell outside [0, n], or
// GRR and SS cells not summing to n and k·n) — and only then installs
// it, so any error leaves the receiver unchanged.
package freq

import (
	"fmt"

	"repro/internal/binenc"
	"repro/internal/tally"
)

// binaryStateVersion tags the current state layouts. It is the first
// byte of every payload and is checked before anything else is read.
const binaryStateVersion = 0

// readBinaryStateVersion consumes and checks the leading version tag:
// any other value means the blob was written by a future revision and
// must not be reinterpreted field by field.
func readBinaryStateVersion(name string, r *binenc.Reader) error {
	version := int(r.Byte())
	if err := r.Err(); err != nil {
		return stateDecodeError(name, err)
	}
	if version != binaryStateVersion {
		return fmt.Errorf("freq: %s state: unsupported state version %d", name, version)
	}
	return nil
}

// wholeFloats is the byte LH's layout holds between n and its cells.
// LH first wrote its integer support as binenc.PackedFloat64s, whose
// whole-number mode is this byte followed by the very zig-zag varints
// binenc.Int64s writes; the byte stays as a fixed field of the layout.
const wholeFloats = 1

// marshalState writes a counting oracle's layout: the version byte,
// name, ε and d, the mechanism's own parameters (params, when it has
// any), then the tally.
func (c *counting) marshalState(params func(*binenc.Writer)) ([]byte, error) {
	w := binenc.NewWriter()
	defer w.Release()
	w.Byte(binaryStateVersion)
	w.String(c.name)
	w.Float64(c.epsilon)
	w.Varint(int64(c.d))
	if params != nil {
		params(w)
	}
	if c.wholeTag {
		w.Varint(c.tally.N)
		w.Byte(wholeFloats)
		w.Int64s(c.tally.Cells)
	} else {
		c.tally.Write(w)
	}
	return append([]byte(nil), w.Bytes()...), nil
}

// unmarshalState reads a layout written by marshalState and installs
// its tally. params reads the mechanism's own parameters and reports
// whether they are the receiver's; perReport is the number of values
// every report supports when the mechanism fixes it (GRR 1, SS k),
// else 0. Every field is read and checked before the tally is
// installed, so any error leaves the receiver unchanged.
func (c *counting) unmarshalState(data []byte, perReport int, params func(*binenc.Reader) bool) error {
	r := binenc.NewReader(data)
	if err := readBinaryStateVersion(c.name, r); err != nil {
		return err
	}
	mechanism, epsilon, d := r.String(), r.Float64(), int(r.Varint())
	same := params == nil || params(r)
	var t tally.Tally
	tagged := true
	if c.wholeTag {
		t.N = r.Varint()
		tagged = r.Byte() == wholeFloats
		t.Cells = r.Int64s()
	} else {
		t = tally.Read(r)
	}
	if err := r.Done(); err != nil {
		return stateDecodeError(c.name, err)
	}
	if mechanism != c.name || epsilon != c.epsilon || d != c.d || !same {
		return stateParamError(c.name)
	}
	if !tagged {
		return fmt.Errorf("freq: %s state: cells not in the whole-number form", c.name)
	}
	if err := t.Check(c.d, perReport); err != nil {
		return stateDecodeError(c.name, err)
	}
	c.tally = t
	return nil
}

// MarshalState implements Oracle.
func (g *GRR) MarshalState() ([]byte, error) { return g.marshalState(nil) }

// UnmarshalState implements Oracle. Every GRR report lands in exactly
// one bucket, so the tallies must sum to n.
func (g *GRR) UnmarshalState(data []byte) error { return g.unmarshalState(data, 1, nil) }

// MarshalState implements Oracle.
func (u *UE) MarshalState() ([]byte, error) {
	return u.marshalState(func(w *binenc.Writer) {
		w.Float64(u.p)
		w.Float64(u.q)
	})
}

// UnmarshalState implements Oracle. The (p, q) pair keeps SUE, OUE and
// custom-UE state mutually exclusive even at equal ε (they debias with
// different constants).
func (u *UE) UnmarshalState(data []byte) error {
	return u.unmarshalState(data, 0, func(r *binenc.Reader) bool {
		p, q := r.Float64(), r.Float64()
		return p == u.p && q == u.q
	})
}

// MarshalState implements Oracle.
func (t *THE) MarshalState() ([]byte, error) {
	return t.marshalState(func(w *binenc.Writer) { w.Float64(t.theta) })
}

// UnmarshalState implements Oracle. θ must match because it determines
// the (p, q) debiasing constants, which are derived, not stored.
func (t *THE) UnmarshalState(data []byte) error {
	return t.unmarshalState(data, 0, func(r *binenc.Reader) bool { return r.Float64() == t.theta })
}

// MarshalState implements Oracle.
func (l *LH) MarshalState() ([]byte, error) {
	return l.marshalState(func(w *binenc.Writer) { w.Varint(int64(l.g)) })
}

// UnmarshalState implements Oracle. The hash range g fixes the
// debiasing constants, and the name distinguishes BLH from an explicit
// g=2 LH, mirroring Merge.
func (l *LH) UnmarshalState(data []byte) error {
	return l.unmarshalState(data, 0, func(r *binenc.Reader) bool { return int(r.Varint()) == l.g })
}

// MarshalState implements Oracle.
func (s *SS) MarshalState() ([]byte, error) {
	return s.marshalState(func(w *binenc.Writer) { w.Varint(int64(s.k)) })
}

// UnmarshalState implements Oracle. The subset size k must match since
// it fixes (p, q), and every report supports exactly k values, so the
// tallies must sum to k·n.
func (s *SS) UnmarshalState(data []byte) error {
	return s.unmarshalState(data, s.k, func(r *binenc.Reader) bool { return int(r.Varint()) == s.k })
}

// --- SHE ---

// MarshalState implements Oracle.
func (s *SHE) MarshalState() ([]byte, error) {
	w := binenc.NewWriter()
	defer w.Release()
	w.Byte(binaryStateVersion)
	w.String(s.Name())
	w.Float64(s.epsilon)
	w.Varint(int64(s.d))
	w.Varint(int64(s.n))
	w.PackedFloat64s(s.sums)
	return append([]byte(nil), w.Bytes()...), nil
}

// UnmarshalState implements Oracle.
func (s *SHE) UnmarshalState(data []byte) error {
	r := binenc.NewReader(data)
	if err := readBinaryStateVersion(s.Name(), r); err != nil {
		return err
	}
	mechanism, epsilon, d := r.String(), r.Float64(), int(r.Varint())
	n, sums := int(r.Varint()), r.PackedFloat64s()
	if err := r.Done(); err != nil {
		return stateDecodeError(s.Name(), err)
	}
	if mechanism != s.Name() || epsilon != s.epsilon || d != s.d {
		return stateParamError(s.Name())
	}
	if err := checkStateShape(s.Name(), n, len(sums), s.d); err != nil {
		return err
	}
	copy(s.sums, sums)
	s.n = n
	return nil
}

// --- HRR ---

// MarshalState implements Oracle.
func (h *HRR) MarshalState() ([]byte, error) {
	w := binenc.NewWriter()
	defer w.Release()
	w.Byte(binaryStateVersion)
	w.String(h.Name())
	w.Float64(h.epsilon)
	w.Varint(int64(h.d))
	w.Varint(int64(h.n))
	w.PackedFloat64s(h.coefSum)
	return append([]byte(nil), w.Bytes()...), nil
}

// UnmarshalState implements Oracle.
func (h *HRR) UnmarshalState(data []byte) error {
	r := binenc.NewReader(data)
	if err := readBinaryStateVersion(h.Name(), r); err != nil {
		return err
	}
	mechanism, epsilon, d := r.String(), r.Float64(), int(r.Varint())
	n, coefSum := int(r.Varint()), r.PackedFloat64s()
	if err := r.Done(); err != nil {
		return stateDecodeError(h.Name(), err)
	}
	if mechanism != h.Name() || epsilon != h.epsilon || d != h.d {
		return stateParamError(h.Name())
	}
	// The coefficient sums run over the padded power-of-two domain,
	// which is derived from the logical domain and not stored.
	if err := checkStateShape(h.Name(), n, len(coefSum), h.dd); err != nil {
		return err
	}
	copy(h.coefSum, coefSum)
	h.n = n
	return nil
}
