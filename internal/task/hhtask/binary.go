// State codec for the heavy-hitter aggregator: the accumulator layout
// (stateVersionSums) with varint-packed support sums. The leading
// version byte is checked before the payload is read; the legacy
// report-list layout was never given a binary form, so only the
// accumulator version is accepted. Decoding feeds the same applyState
// validation as the legacy JSON decoder.
package hhtask

import (
	"fmt"

	"repro/internal/binenc"
)

// MarshalState serializes the full protocol state: parameters, round
// position, surviving prefixes, the current round's accumulator and
// (when done) the final hits.
func (a *Aggregator) MarshalState() ([]byte, error) {
	w := binenc.NewWriter()
	defer w.Release()
	w.Byte(stateVersionSums)
	w.String(MechanismPEM)
	w.Float64(a.params.Epsilon)
	w.Varint(int64(a.params.Bits))
	w.Varint(int64(a.params.Levels))
	w.Varint(int64(a.params.K))
	w.Varint(int64(a.params.CandidateBudget))
	w.Varint(int64(a.round))
	if a.done {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
	w.Varint(int64(a.prevUsers))
	writePrefixes(w, a.survivors)
	w.Varint(int64(a.roundReports))
	w.Int64s(a.sums)
	writePrefixes(w, a.hits)
	return append([]byte(nil), w.Bytes()...), nil
}

// UnmarshalState restores a state blob produced by MarshalState. The
// blob's parameters must match the receiver's; anything else is an
// error leaving the receiver unchanged.
func (a *Aggregator) UnmarshalState(data []byte) error {
	r := binenc.NewReader(data)
	version := int(r.Byte())
	if err := r.Err(); err != nil {
		return fmt.Errorf("hhtask: bad state: %w", err)
	}
	if version != stateVersionSums {
		return fmt.Errorf("hhtask: state version %d not supported (have %d)", version, stateVersionSums)
	}
	var st state
	st.V = version
	st.Mechanism = r.String()
	st.Epsilon = r.Float64()
	st.Bits = int(r.Varint())
	st.Levels = int(r.Varint())
	st.K = int(r.Varint())
	st.Budget = int(r.Varint())
	st.Round = int(r.Varint())
	st.Done = r.Byte() != 0
	st.PrevUsers = int(r.Varint())
	st.Survivors = readPrefixes(r)
	st.RoundReports = int(r.Varint())
	st.Sums = r.Int64s()
	st.Hits = readPrefixes(r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("hhtask: bad state: %w", err)
	}
	return a.applyState(st)
}

// writePrefixes appends a length-prefixed prefix list: each entry is
// the raw 64-bit prefix value plus its estimated count.
func writePrefixes(w *binenc.Writer, ps []Prefix) {
	w.Uvarint(uint64(len(ps)))
	for _, p := range ps {
		w.Uint64(p.Value)
		w.Float64(p.Count)
	}
}

// readPrefixes reads a list written by writePrefixes, guarding the
// length prefix against the bytes remaining (16 per entry).
func readPrefixes(r *binenc.Reader) []Prefix {
	n := r.Length(16)
	if r.Err() != nil || n == 0 {
		return nil
	}
	out := make([]Prefix, n)
	for i := range out {
		out[i].Value = r.Uint64()
		out[i].Count = r.Float64()
	}
	if r.Err() != nil {
		return nil
	}
	return out
}
