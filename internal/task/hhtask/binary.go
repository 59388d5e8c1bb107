// Binary codecs for the heavy-hitter task. The report envelope is
// freqtask's local-hashing layout plus the round. The state is the
// accumulator layout (stateVersionSums), whose round accumulator is
// written in the tally.Tally layout — the report count, then
// varint-packed support sums. Leading version bytes are checked before
// anything else is read, and a decoded protocol position is validated
// in full before any of it is installed.
package hhtask

import (
	"encoding/json"
	"fmt"

	"repro/internal/binenc"
	"repro/internal/heavyhitters"
	"repro/internal/tally"
)

// binaryEnvelopeVersion tags the binary report envelope layout.
const binaryEnvelopeVersion = 0

// writeEnvelope appends e in the binary envelope layout: the version,
// the mechanism name, the 8-byte seed, the varint bucket and round.
func writeEnvelope(w *binenc.Writer, e Envelope) {
	w.Byte(binaryEnvelopeVersion)
	w.String(e.Mechanism)
	w.Uint64(e.Seed)
	w.Varint(int64(e.Bucket))
	w.Varint(int64(e.Round))
}

// ReportBinary privatizes value v's prefix at the given round's length
// into a round-tagged binary wire envelope.
func (c *Client) ReportBinary(v uint64, round int) ([]byte, error) {
	e, err := c.envelope(v, round)
	if err != nil {
		return nil, err
	}
	w := binenc.NewWriter()
	defer w.Release()
	writeEnvelope(w, e)
	return append([]byte(nil), w.Bytes()...), nil
}

// Translate implements task.Preparer for the JSON Envelope.
func (a *Aggregator) Translate(w *binenc.Writer, envelope json.RawMessage) error {
	var e Envelope
	if err := json.Unmarshal(envelope, &e); err != nil {
		return fmt.Errorf("hhtask: bad envelope: %w", err)
	}
	writeEnvelope(w, e)
	return nil
}

// PrepareBinary implements task.Preparer: it decodes one binary report
// envelope and validates mechanism and bucket; the round is Fold's.
func (a *Aggregator) PrepareBinary(payload []byte) (any, error) {
	r := binenc.NewReader(payload)
	version := int(r.Byte())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("hhtask: bad binary envelope: %w", err)
	}
	if version != binaryEnvelopeVersion {
		return nil, fmt.Errorf("hhtask: binary envelope version %d not supported", version)
	}
	mechanism := r.String()
	if r.Err() == nil && mechanism != MechanismPEM {
		return nil, fmt.Errorf("hhtask: envelope mechanism %q does not match %q", mechanism, MechanismPEM)
	}
	seed, bucket, round := r.Uint64(), r.Varint(), r.Varint()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("hhtask: bad binary envelope: %w", err)
	}
	if bucket < 0 || bucket >= int64(a.mech.G()) {
		return nil, fmt.Errorf("hhtask: bucket %d out of range [0,%d)", bucket, a.mech.G())
	}
	return roundReport{round: int(round), rep: heavyhitters.LHReport{Seed: seed, Bucket: int(bucket)}}, nil
}

// stateVersionSums is the state layout's version tag: support sums
// plus a round report counter. The candidate vector itself is not
// stored — it is a deterministic function of round and survivors,
// recomputed at load. The value is frozen in every state written so
// far; a new layout takes the next number.
const stateVersionSums = 2

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
	a.tally.Write(w)
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
	mechanism := r.String()
	params := heavyhitters.PEMParams{
		Epsilon:         r.Float64(),
		Bits:            int(r.Varint()),
		Levels:          int(r.Varint()),
		K:               int(r.Varint()),
		CandidateBudget: int(r.Varint()),
	}
	round, done, prevUsers := int(r.Varint()), r.Byte() != 0, int(r.Varint())
	survivors := readPrefixes(r)
	acc := tally.Read(r)
	hits := readPrefixes(r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("hhtask: bad state: %w", err)
	}
	if mechanism != MechanismPEM {
		return fmt.Errorf("hhtask: state mechanism %q does not match %q", mechanism, MechanismPEM)
	}
	if params != a.params {
		return fmt.Errorf("hhtask: state parameters %+v do not match aggregator %+v", params, a.params)
	}
	if round < 0 || round > params.Levels {
		return fmt.Errorf("hhtask: state round %d outside [0,%d]", round, params.Levels)
	}
	// The protocol maintains done ⇔ round == Levels (only the final
	// Advance sets done) with no reports in flight afterwards; a state
	// violating either is corrupt or hand-edited, and restoring it
	// would open a phantom round past the protocol's end.
	if done != (round == params.Levels) {
		return fmt.Errorf("hhtask: state done=%v inconsistent with round %d of %d levels", done, round, params.Levels)
	}
	if done && (len(acc.Cells) > 0 || acc.N != 0) {
		return fmt.Errorf("hhtask: completed state carries in-flight round data")
	}
	// The restored accumulator is built aside: every failure below
	// must leave the receiver untouched.
	var cands []uint64
	if !done {
		cands = candidatesFor(a.params, round, survivors)
		if acc.N == 0 && len(acc.Cells) == 0 {
			acc = tally.New(len(cands)) // an idle round may omit its zero sums
		}
	}
	if err := acc.Check(len(cands), 0); err != nil {
		return fmt.Errorf("hhtask: state round accumulator: %w", err)
	}
	a.round, a.done, a.prevUsers = round, done, prevUsers
	a.survivors, a.hits = survivors, hits
	a.cands, a.tally = cands, acc
	return nil
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
