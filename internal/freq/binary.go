// State codec for the frequency oracles. Each mechanism's layout is a
// leading format-version byte, the mechanism name, the debiasing
// parameters, the report count, and the tally vector (varint-packed
// for integer tallies, raw 8-byte words for float sums). Decoding
// feeds the same applyState validation as the read-only legacy JSON
// decoders (UnmarshalLegacyState), so a state restored from either is
// bit-identical.
package freq

import (
	"repro/internal/binenc"
)

// binaryStateVersion tags the current state layouts. It is the first
// byte of every payload and is checked before anything else is read.
const binaryStateVersion = 0

// readBinaryStateVersion consumes and checks the leading version tag.
func readBinaryStateVersion(name string, r *binenc.Reader) error {
	version := int(r.Byte())
	if err := r.Err(); err != nil {
		return stateDecodeError(name, err)
	}
	return checkStateVersion(name, version)
}

// --- GRR (and BinaryRR) ---

// MarshalState implements Oracle.
func (g *GRR) MarshalState() ([]byte, error) { return g.marshalStateAs(g.Name()) }

// UnmarshalState implements Oracle.
func (g *GRR) UnmarshalState(data []byte) error {
	return g.unmarshalStateAs(g.Name(), data)
}

func (g *GRR) marshalStateAs(name string) ([]byte, error) {
	w := binenc.NewWriter()
	defer w.Release()
	w.Byte(binaryStateVersion)
	w.String(name)
	w.Float64(g.epsilon)
	w.Varint(int64(g.d))
	w.Varint(int64(g.n))
	w.Ints(g.counts)
	return append([]byte(nil), w.Bytes()...), nil
}

func (g *GRR) unmarshalStateAs(name string, data []byte) error {
	r := binenc.NewReader(data)
	if err := readBinaryStateVersion(name, r); err != nil {
		return err
	}
	var st grrState
	st.Mechanism = r.String()
	st.Epsilon = r.Float64()
	st.Domain = int(r.Varint())
	st.N = int(r.Varint())
	st.Counts = r.Ints()
	if err := r.Done(); err != nil {
		return stateDecodeError(name, err)
	}
	return g.applyState(name, st)
}

// MarshalState implements Oracle, writing the wrapper's "RR" name so
// BinaryRR state cannot silently restore into a generic d=2 GRR.
func (b BinaryRR) MarshalState() ([]byte, error) { return b.GRR.marshalStateAs(b.Name()) }

// UnmarshalState implements Oracle.
func (b BinaryRR) UnmarshalState(data []byte) error {
	return b.GRR.unmarshalStateAs(b.Name(), data)
}

// --- UE (SUE/OUE/custom) ---

// MarshalState implements Oracle.
func (u *UE) MarshalState() ([]byte, error) {
	w := binenc.NewWriter()
	defer w.Release()
	w.Byte(binaryStateVersion)
	w.String(u.name)
	w.Float64(u.epsilon)
	w.Varint(int64(u.d))
	w.Float64(u.p)
	w.Float64(u.q)
	w.Varint(int64(u.n))
	w.Ints(u.ones)
	return append([]byte(nil), w.Bytes()...), nil
}

// UnmarshalState implements Oracle.
func (u *UE) UnmarshalState(data []byte) error {
	r := binenc.NewReader(data)
	if err := readBinaryStateVersion(u.name, r); err != nil {
		return err
	}
	var st ueState
	st.Mechanism = r.String()
	st.Epsilon = r.Float64()
	st.Domain = int(r.Varint())
	st.P = r.Float64()
	st.Q = r.Float64()
	st.N = int(r.Varint())
	st.Ones = r.Ints()
	if err := r.Done(); err != nil {
		return stateDecodeError(u.name, err)
	}
	return u.applyState(st)
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
	var st sheState
	st.Mechanism = r.String()
	st.Epsilon = r.Float64()
	st.Domain = int(r.Varint())
	st.N = int(r.Varint())
	st.Sums = r.PackedFloat64s()
	if err := r.Done(); err != nil {
		return stateDecodeError(s.Name(), err)
	}
	return s.applyState(st)
}

// --- THE ---

// MarshalState implements Oracle.
func (t *THE) MarshalState() ([]byte, error) {
	w := binenc.NewWriter()
	defer w.Release()
	w.Byte(binaryStateVersion)
	w.String(t.Name())
	w.Float64(t.epsilon)
	w.Varint(int64(t.d))
	w.Float64(t.theta)
	w.Varint(int64(t.n))
	w.Ints(t.ones)
	return append([]byte(nil), w.Bytes()...), nil
}

// UnmarshalState implements Oracle.
func (t *THE) UnmarshalState(data []byte) error {
	r := binenc.NewReader(data)
	if err := readBinaryStateVersion(t.Name(), r); err != nil {
		return err
	}
	var st theState
	st.Mechanism = r.String()
	st.Epsilon = r.Float64()
	st.Domain = int(r.Varint())
	st.Theta = r.Float64()
	st.N = int(r.Varint())
	st.Ones = r.Ints()
	if err := r.Done(); err != nil {
		return stateDecodeError(t.Name(), err)
	}
	return t.applyState(st)
}

// --- LH (BLH/OLH/custom) ---

// MarshalState implements Oracle.
func (l *LH) MarshalState() ([]byte, error) {
	w := binenc.NewWriter()
	defer w.Release()
	w.Byte(binaryStateVersion)
	w.String(l.name)
	w.Float64(l.epsilon)
	w.Varint(int64(l.d))
	w.Varint(int64(l.g))
	w.Varint(int64(l.n))
	// The tallies are integers in memory; on the wire they stay the
	// whole-number float vector this layout has always held.
	support := make([]float64, len(l.support))
	for v, s := range l.support {
		support[v] = float64(s)
	}
	w.PackedFloat64s(support)
	return append([]byte(nil), w.Bytes()...), nil
}

// UnmarshalState implements Oracle.
func (l *LH) UnmarshalState(data []byte) error {
	r := binenc.NewReader(data)
	if err := readBinaryStateVersion(l.name, r); err != nil {
		return err
	}
	var st lhState
	st.Mechanism = r.String()
	st.Epsilon = r.Float64()
	st.Domain = int(r.Varint())
	st.G = int(r.Varint())
	st.N = int(r.Varint())
	st.Support = r.PackedFloat64s()
	if err := r.Done(); err != nil {
		return stateDecodeError(l.name, err)
	}
	return l.applyState(st)
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
	var st hrrState
	st.Mechanism = r.String()
	st.Epsilon = r.Float64()
	st.Domain = int(r.Varint())
	st.N = int(r.Varint())
	st.CoefSum = r.PackedFloat64s()
	if err := r.Done(); err != nil {
		return stateDecodeError(h.Name(), err)
	}
	return h.applyState(st)
}

// --- SS ---

// MarshalState implements Oracle.
func (s *SS) MarshalState() ([]byte, error) {
	w := binenc.NewWriter()
	defer w.Release()
	w.Byte(binaryStateVersion)
	w.String(s.Name())
	w.Float64(s.epsilon)
	w.Varint(int64(s.d))
	w.Varint(int64(s.k))
	w.Varint(int64(s.n))
	w.Ints(s.support)
	return append([]byte(nil), w.Bytes()...), nil
}

// UnmarshalState implements Oracle.
func (s *SS) UnmarshalState(data []byte) error {
	r := binenc.NewReader(data)
	if err := readBinaryStateVersion(s.Name(), r); err != nil {
		return err
	}
	var st ssState
	st.Mechanism = r.String()
	st.Epsilon = r.Float64()
	st.Domain = int(r.Varint())
	st.K = int(r.Varint())
	st.N = int(r.Varint())
	st.Support = r.Ints()
	if err := r.Done(); err != nil {
		return stateDecodeError(s.Name(), err)
	}
	return s.applyState(st)
}
