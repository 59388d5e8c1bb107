// State codec for the frequency oracles. Each mechanism's layout is a
// leading format-version byte, the mechanism name, the debiasing
// parameters, the report count, and the tally vector (varint-packed
// for integer tallies, raw 8-byte words for float sums). A decoder
// reads every field, refuses a state that does not belong on the
// receiver — another mechanism or other parameters, a vector of the
// wrong length, tallies no multiset of reports could have produced —
// and only then installs it, so any error leaves the receiver
// unchanged.
package freq

import (
	"fmt"
	"math"

	"repro/internal/binenc"
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

// checkTallies validates a vector of per-value report tallies: one
// cell per domain value, each counting at most one per report.
func checkTallies(name string, n int, tallies []int, d int) error {
	if err := checkStateShape(name, n, len(tallies), d); err != nil {
		return err
	}
	for _, c := range tallies {
		if c < 0 || c > n {
			return stateShapeError(name)
		}
	}
	return nil
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
	mechanism, epsilon, d := r.String(), r.Float64(), int(r.Varint())
	n, counts := int(r.Varint()), r.Ints()
	if err := r.Done(); err != nil {
		return stateDecodeError(name, err)
	}
	if mechanism != name || epsilon != g.epsilon || d != g.d {
		return stateParamError(name)
	}
	if err := checkStateShape(name, n, len(counts), g.d); err != nil {
		return err
	}
	// GRR's tally is exact: every report lands in exactly one bucket,
	// so a state whose counts do not sum to n was corrupted somewhere.
	sum := 0
	for _, c := range counts {
		if c < 0 {
			return stateShapeError(name)
		}
		sum += c
	}
	if sum != n {
		return stateShapeError(name)
	}
	copy(g.counts, counts)
	g.n = n
	return nil
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
	mechanism, epsilon, d := r.String(), r.Float64(), int(r.Varint())
	p, q := r.Float64(), r.Float64()
	n, ones := int(r.Varint()), r.Ints()
	if err := r.Done(); err != nil {
		return stateDecodeError(u.name, err)
	}
	// The (p, q) pair keeps SUE, OUE and custom-UE state mutually
	// exclusive even at equal ε (they debias with different constants).
	if mechanism != u.name || epsilon != u.epsilon || d != u.d || p != u.p || q != u.q {
		return stateParamError(u.name)
	}
	if err := checkTallies(u.name, n, ones, u.d); err != nil {
		return err
	}
	copy(u.ones, ones)
	u.n = n
	return nil
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
	mechanism, epsilon, d := r.String(), r.Float64(), int(r.Varint())
	theta := r.Float64()
	n, ones := int(r.Varint()), r.Ints()
	if err := r.Done(); err != nil {
		return stateDecodeError(t.Name(), err)
	}
	// θ must match because it determines the (p, q) debiasing
	// constants, which are derived, not stored.
	if mechanism != t.Name() || epsilon != t.epsilon || d != t.d || theta != t.theta {
		return stateParamError(t.Name())
	}
	if err := checkTallies(t.Name(), n, ones, t.d); err != nil {
		return err
	}
	copy(t.ones, ones)
	t.n = n
	return nil
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
	mechanism, epsilon, d := r.String(), r.Float64(), int(r.Varint())
	g := int(r.Varint())
	n, cells := int(r.Varint()), r.PackedFloat64s()
	if err := r.Done(); err != nil {
		return stateDecodeError(l.name, err)
	}
	// The hash range g fixes the debiasing constants, and the name
	// distinguishes BLH from an explicit g=2 LH, mirroring Merge.
	if mechanism != l.name || epsilon != l.epsilon || d != l.d || g != l.g {
		return stateParamError(l.name)
	}
	if err := checkStateShape(l.name, n, len(cells), l.d); err != nil {
		return err
	}
	support := make([]int64, l.d)
	for v, f := range cells {
		// Each report supports a value at most once, so a tally is a
		// whole number in [0, n]. The float-side bounds also refuse NaN
		// and ±Inf and keep the conversion defined.
		if !(f >= 0 && f < 1<<63) || f != math.Trunc(f) || int64(f) > int64(n) {
			return stateShapeError(l.name)
		}
		support[v] = int64(f)
	}
	l.support = support
	l.n = n
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
	mechanism, epsilon, d := r.String(), r.Float64(), int(r.Varint())
	k := int(r.Varint())
	n, support := int(r.Varint()), r.Ints()
	if err := r.Done(); err != nil {
		return stateDecodeError(s.Name(), err)
	}
	// The subset size k must match since it fixes (p, q).
	if mechanism != s.Name() || epsilon != s.epsilon || d != s.d || k != s.k {
		return stateParamError(s.Name())
	}
	if err := checkTallies(s.Name(), n, support, s.d); err != nil {
		return err
	}
	copy(s.support, support)
	s.n = n
	return nil
}
