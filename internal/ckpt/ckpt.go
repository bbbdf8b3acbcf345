// Package ckpt is the binary encoding of a resident run's checkpoint: the
// words every layer of a tenant (plant, feed, store, estimators,
// controllers, harness, recorder) appends for its own mutable state, and
// the reader that takes them back in the same order. Shapes — how many
// modules, computers, frequencies, histogram buckets — are not encoded:
// they come from the configuration the reader restores into, so only a
// count that varies at run time (a queue, a history) is written, and the
// reader bounds it by the bytes left, which keeps every allocation a
// restore makes proportional to its input.
//
// The encoding appends into one reused buffer: unsigned and zig-zag
// varints, and raw 64-bit words for random-stream state and for floats
// (their IEEE bits). A Reader never panics on malformed input: the first defect
// latches an error, every later read returns zero, and Err reports it.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Writer appends checkpoint words to a byte slice. The zero value is an
// empty writer; Reset reuses a buffer.
type Writer struct{ buf []byte }

// Reset empties the writer onto buf's backing array.
func (w *Writer) Reset(buf []byte) { w.buf = buf[:0] }

// Bytes returns what was written.
func (w *Writer) Bytes() []byte { return w.buf }

// Uint appends v as an unsigned varint.
func (w *Writer) Uint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Int appends v as a zig-zag varint.
func (w *Writer) Int(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Bool appends v as one byte.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

// Word appends v as eight raw bytes.
func (w *Writer) Word(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// Float appends v bit-exactly, as the raw word of its IEEE bits.
func (w *Writer) Float(v float64) { w.Word(math.Float64bits(v)) }

// Floats appends each of vs.
func (w *Writer) Floats(vs []float64) {
	for _, v := range vs {
		w.Float(v)
	}
}

// Bools appends each of vs.
func (w *Writer) Bools(vs []bool) {
	for _, v := range vs {
		w.Bool(v)
	}
}

// ErrCorrupt is wrapped by every error a Reader reports.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

// Reader reads checkpoint words back in the order they were written.
type Reader struct {
	buf []byte
	err error
}

// NewReader reads from b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first defect met, or nil.
func (r *Reader) Err() error { return r.err }

// Fail latches a defect found by the caller (a value outside its domain).
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// Done reports the first defect, or trailing bytes nothing read.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) > 0 {
		r.Fail("%d trailing bytes", len(r.buf))
	}
	return r.err
}

// Uint reads an unsigned varint.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.Fail("bad unsigned varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Int reads a zig-zag varint.
func (r *Reader) Int() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.Fail("bad varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// IntIn reads a zig-zag varint and checks it lies in [lo, hi].
func (r *Reader) IntIn(lo, hi int, what string) int {
	v := r.Int()
	if v < int64(lo) || v > int64(hi) {
		r.Fail("%s %d outside [%d, %d]", what, v, lo, hi)
		return lo
	}
	return int(v)
}

// Count reads a length and checks that as many items of at least minBytes
// each could still follow, so a corrupt count cannot size an allocation
// past the input.
func (r *Reader) Count(minBytes int, what string) int {
	v := r.Uint()
	if v > uint64(len(r.buf)/minBytes) {
		r.Fail("%s count %d exceeds the %d bytes left", what, v, len(r.buf))
		return 0
	}
	return int(v)
}

// Bool reads one byte written by Writer.Bool.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.buf) == 0 || r.buf[0] > 1 {
		r.Fail("bad bool")
		return false
	}
	v := r.buf[0] == 1
	r.buf = r.buf[1:]
	return v
}

// Word reads eight raw bytes.
func (r *Reader) Word() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.Fail("short word")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

// Float reads a float written by Writer.Float.
func (r *Reader) Float() float64 { return math.Float64frombits(r.Word()) }

// Floats reads len(dst) floats into dst.
func (r *Reader) Floats(dst []float64) {
	for i := range dst {
		dst[i] = r.Float()
	}
}

// Bools reads len(dst) bools into dst.
func (r *Reader) Bools(dst []bool) {
	for i := range dst {
		dst[i] = r.Bool()
	}
}
