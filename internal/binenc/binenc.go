// Package binenc provides the primitives shared by every binary codec
// in the repository: length-prefixed fixed layouts assembled by an
// append-only Writer and consumed by a bounds-checked Reader.
//
// The encoding vocabulary is deliberately small — bytes, varints
// (unsigned, and zig-zag for signed), IEEE-754 float64s in fixed
// little-endian, and length-prefixed blobs — because every state and
// envelope format in this repo is a handful of parameters plus one
// large numeric vector. Integer vectors are varint-packed (support
// sums are small in practice), float vectors are raw 8-byte words
// (they are noise-bearing and incompressible), and bit vectors travel
// as their packed words instead of base64 text.
//
// Readers are hostile-input safe: every length prefix is validated
// against the bytes actually remaining before any allocation, so a
// frame that lies about its length is refused with an error instead
// of provoking a huge make(). Errors are sticky — after the first
// malformed field every subsequent read returns zero values — so
// decoders can parse a whole struct and check Err once, mirroring how
// encoding/json surfaces the first syntax error.
package binenc

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
)

// Writer assembles a binary payload by appending primitive fields.
// The zero value is ready to use; NewWriter draws one from a pool
// (return it with Release) so hot paths reuse encode buffers instead
// of churning the GC.
type Writer struct {
	buf []byte
}

// writerPool recycles encode buffers through the batch-ingest and
// checkpoint hot paths. Oversized buffers (a checkpoint of a huge
// sketch) are dropped at Release rather than pinned forever.
var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// maxPooledBuf bounds the capacity a released Writer may keep: big
// enough that report envelopes and mid-size states always reuse, small
// enough that one giant checkpoint buffer does not stay resident.
const maxPooledBuf = 1 << 20

// NewWriter returns an empty pooled Writer.
func NewWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.buf = w.buf[:0]
	return w
}

// Release returns the Writer to the pool. The caller must not touch
// the Writer, or any []byte obtained from Bytes, afterwards.
func (w *Writer) Release() {
	if cap(w.buf) > maxPooledBuf {
		w.buf = nil
	}
	writerPool.Put(w)
}

// Reset discards the accumulated payload, keeping the buffer.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Truncate discards everything appended after the first n bytes — how
// a caller writing several payloads into one buffer drops a payload it
// gave up on half-way.
func (w *Writer) Truncate(n int) { w.buf = w.buf[:n] }

// Bytes returns the accumulated payload. The slice aliases the
// Writer's buffer: copy it (or finish with it) before Release.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes accumulated so far.
func (w *Writer) Len() int { return len(w.buf) }

// Byte appends one raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(u uint64) { w.buf = binary.AppendUvarint(w.buf, u) }

// Varint appends a zig-zag signed varint.
func (w *Writer) Varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Uint64 appends a fixed 8-byte little-endian word — for values like
// hash seeds that use all 64 bits, where a varint would be longer.
func (w *Writer) Uint64(u uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, u) }

// Float64 appends the IEEE-754 bits of f as a fixed little-endian
// word, so every float — including negative zero and NaN payloads —
// round-trips bit for bit.
func (w *Writer) Float64(f float64) { w.Uint64(math.Float64bits(f)) }

// String appends a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (w *Writer) Blob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Ints appends a length-prefixed vector of zig-zag varints. Count and
// support vectors are small non-negative numbers in practice, so the
// packed form is a fraction of the 8 bytes per element a fixed layout
// would spend.
func (w *Writer) Ints(s []int) {
	w.Uvarint(uint64(len(s)))
	for _, v := range s {
		w.Varint(int64(v))
	}
}

// Int64s appends a length-prefixed vector of zig-zag varints.
func (w *Writer) Int64s(s []int64) {
	w.Uvarint(uint64(len(s)))
	for _, v := range s {
		w.Varint(v)
	}
}

// Float64s appends a length-prefixed vector of fixed 8-byte floats.
func (w *Writer) Float64s(s []float64) {
	w.Uvarint(uint64(len(s)))
	w.RawFloat64s(s)
}

// RawFloat64s appends fixed 8-byte floats with no length prefix, for
// callers assembling one logical vector from chunks (a sketch's rows)
// under a single prefix they wrote themselves.
func (w *Writer) RawFloat64s(s []float64) {
	w.buf = growBy(w.buf, 8*len(s))
	for _, f := range s {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
	}
}

// Packed-float modes: count-like float vectors (local-hashing support
// tallies, sketch totals) hold whole numbers almost always, where a
// varint is a fraction of the fixed 8 bytes; noise-bearing vectors
// fall back to raw words. The mode byte keeps both bit-exact.
const (
	packedFloatsRaw   = 0 // uvarint len + raw 8-byte words
	packedFloatsWhole = 1 // uvarint len + zig-zag varints
	maxWholeFloat     = 1 << 53
)

// PackedFloat64s appends a float vector in the smaller of two exact
// encodings: zig-zag varints when every element is a whole number
// small enough that the integer round-trips through float64 bit for
// bit (|v| ≤ 2⁵³, including negative zero — which is whole but not
// identical to +0, so it forces raw mode), raw 8-byte words otherwise.
func (w *Writer) PackedFloat64s(s []float64) {
	whole := true
	for _, f := range s {
		if f != math.Trunc(f) || math.Abs(f) > maxWholeFloat || math.Float64bits(f) == math.Float64bits(math.Copysign(0, -1)) {
			whole = false
			break
		}
	}
	if !whole {
		w.Byte(packedFloatsRaw)
		w.Float64s(s)
		return
	}
	w.Byte(packedFloatsWhole)
	w.Uvarint(uint64(len(s)))
	for _, f := range s {
		w.Varint(int64(f))
	}
}

// PackedFloat64s reads a vector written by Writer.PackedFloat64s.
func (r *Reader) PackedFloat64s() []float64 {
	switch mode := r.Byte(); mode {
	case packedFloatsRaw:
		return r.Float64s()
	case packedFloatsWhole:
		n := r.length(1)
		if r.err != nil || n == 0 {
			return nil
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(r.Varint())
		}
		if r.err != nil {
			return nil
		}
		return out
	default:
		if r.err == nil {
			r.fail("unknown packed-float mode %d", mode)
		}
		return nil
	}
}

// growBy ensures buf has room to append n more bytes without further
// reallocation, growing geometrically so a sequence of growBy calls —
// a sketch streaming a thousand half-megabyte rows — costs amortized
// O(total), not a full copy per call.
func growBy(buf []byte, n int) []byte {
	return slices.Grow(buf, n)
}

// Reader consumes a binary payload produced by Writer. All reads are
// bounds-checked against the remaining input; the first malformed
// field latches an error and every later read returns zero values.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b. The Reader aliases b; the caller
// must not mutate it while decoding.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unconsumed bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Done returns the latched decode error, or an error if unconsumed
// bytes remain — a payload with trailing garbage is as malformed as a
// truncated one.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if n := r.Remaining(); n > 0 {
		return fmt.Errorf("binenc: %d trailing bytes after payload", n)
	}
	return nil
}

// fail latches the first error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("binenc: "+format, args...)
	}
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 1 {
		r.fail("truncated byte")
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	u, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return u
}

// Varint reads a zig-zag signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Uint64 reads a fixed 8-byte little-endian word.
func (r *Reader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.fail("truncated uint64")
		return 0
	}
	u := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return u
}

// Float64 reads a fixed 8-byte IEEE-754 float.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// length validates a length prefix against the bytes remaining, given
// the minimum encoded size of one element. This is the over-allocation
// guard: a prefix claiming more elements than the remaining bytes
// could possibly hold is refused before any make().
func (r *Reader) length(minElem int) int {
	u := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if u > uint64(r.Remaining()/minElem) {
		r.fail("length %d exceeds %d remaining bytes", u, r.Remaining())
		return 0
	}
	return int(u)
}

// Length reads a length prefix and validates it against the bytes
// remaining, given the minimum encoded size of one element — the same
// over-allocation guard the built-in vector reads use, exported so
// composite decoders can guard their own repeated structures before
// allocating.
func (r *Reader) Length(minElem int) int { return r.length(minElem) }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.length(1)
	if r.err != nil || n == 0 {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// Blob reads a length-prefixed byte slice. The result aliases the
// Reader's input; callers that retain it past the input's lifetime
// must copy.
func (r *Reader) Blob() []byte {
	n := r.length(1)
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Ints reads a length-prefixed vector of zig-zag varints.
func (r *Reader) Ints() []int {
	n := r.length(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(r.Varint())
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Int64s reads a length-prefixed vector of zig-zag varints.
func (r *Reader) Int64s() []int64 {
	n := r.length(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Varint()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Float64s reads a length-prefixed vector of fixed 8-byte floats.
func (r *Reader) Float64s() []float64 {
	n := r.length(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
		r.off += 8
	}
	return out
}
