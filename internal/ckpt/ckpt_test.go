package ckpt

import (
	"errors"
	"math"
	"slices"
	"testing"
)

// TestRoundTrip: every word kind reads back exactly what was written, in
// order, and a fully read blob is Done without error. Floats round-trip
// bit for bit, NaN payload and signed zero included.
func TestRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	floats := []float64{0, math.Copysign(0, -1), 1.5, -math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), nan}
	bools := []bool{true, false, true}
	var w Writer
	w.Uint(0)
	w.Uint(math.MaxUint64)
	w.Int(math.MinInt64)
	w.Int(-1)
	w.Int(math.MaxInt64)
	w.Bool(true)
	w.Bool(false)
	w.Word(0x0123_4567_89ab_cdef)
	w.Float(-2.25)
	w.Floats(floats)
	w.Bools(bools)
	w.Int(7)  // read back by IntIn
	w.Uint(2) // read back by Count
	w.Word(1 << 63)
	w.Word(1)

	r := NewReader(w.Bytes())
	if got := r.Uint(); got != 0 {
		t.Errorf("Uint = %d, want 0", got)
	}
	if got := r.Uint(); got != math.MaxUint64 {
		t.Errorf("Uint = %d, want MaxUint64", got)
	}
	for _, want := range []int64{math.MinInt64, -1, math.MaxInt64} {
		if got := r.Int(); got != want {
			t.Errorf("Int = %d, want %d", got, want)
		}
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool pair did not read back as true, false")
	}
	if got := r.Word(); got != 0x0123_4567_89ab_cdef {
		t.Errorf("Word = %#x", got)
	}
	if got := r.Float(); got != -2.25 {
		t.Errorf("Float = %v, want -2.25", got)
	}
	gotFloats := make([]float64, len(floats))
	r.Floats(gotFloats)
	for i := range floats {
		if math.Float64bits(gotFloats[i]) != math.Float64bits(floats[i]) {
			t.Errorf("Floats[%d] = %#x, want %#x", i, math.Float64bits(gotFloats[i]), math.Float64bits(floats[i]))
		}
	}
	gotBools := make([]bool, len(bools))
	r.Bools(gotBools)
	if !slices.Equal(gotBools, bools) {
		t.Errorf("Bools = %v, want %v", gotBools, bools)
	}
	if got := r.IntIn(7, 7, "x"); got != 7 {
		t.Errorf("IntIn = %d, want 7", got)
	}
	if got := r.Count(8, "word"); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
	if a, b := r.Word(), r.Word(); a != 1<<63 || b != 1 {
		t.Errorf("counted words = %#x, %#x", a, b)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done after reading everything: %v", err)
	}
}

// TestFirstDefectLatches: the first defect is the one reported, and every
// read after it returns zero without consuming input, whatever bytes
// follow.
func TestFirstDefectLatches(t *testing.T) {
	var w Writer
	w.Word(8)
	w.Uint(5)
	w.Int(-5)
	w.Bool(true)
	w.Float(3)
	w.Bools([]bool{true})
	w.Floats([]float64{4})
	r := NewReader(w.Bytes()[:4]) // a torn first word
	if got := r.Word(); got != 0 {
		t.Fatalf("short Word = %d, want 0", got)
	}
	first := r.Err()
	if !errors.Is(first, ErrCorrupt) {
		t.Fatalf("short Word: err %v, want ErrCorrupt", first)
	}
	r.buf = w.Bytes()[8:] // well-formed words after the defect
	if r.Uint() != 0 || r.Int() != 0 || r.Bool() || r.Float() != 0 {
		t.Error("a read after the defect returned a value")
	}
	bools, floats := []bool{true}, []float64{9}
	r.Bools(bools)
	r.Floats(floats)
	if bools[0] || floats[0] != 0 {
		t.Errorf("Bools/Floats after the defect = %v, %v, want zeros", bools, floats)
	}
	if got := r.IntIn(-3, 3, "x"); got != 0 {
		t.Errorf("IntIn after the defect = %d, want 0", got)
	}
	if got := r.Count(1, "x"); got != 0 {
		t.Errorf("Count after the defect = %d, want 0", got)
	}
	r.Fail("a later defect")
	if r.Err() != first || r.Done() != first {
		t.Errorf("error changed after the first defect: %v, then %v", first, r.Err())
	}
	if len(r.buf) != len(w.Bytes())-8 {
		t.Errorf("reads after the defect consumed %d bytes", len(w.Bytes())-8-len(r.buf))
	}
}

// TestCountBoundedByBytesLeft: a count is accepted only if that many
// items of the stated minimum size still fit in the bytes left.
func TestCountBoundedByBytesLeft(t *testing.T) {
	for _, tc := range []struct {
		count, minBytes, left int
		ok                    bool
	}{
		{0, 16, 0, true},
		{2, 16, 32, true},
		{2, 16, 31, false},
		{3, 16, 47, false},
		{47, 1, 47, true},
		{48, 1, 47, false},
		{1, 8, 7, false},
	} {
		r := NewReader(appendZeros(tc.count, tc.left))
		got := r.Count(tc.minBytes, "item")
		if tc.ok {
			if got != tc.count || r.Err() != nil {
				t.Errorf("count %d of %d-byte items in %d bytes: got %d, %v", tc.count, tc.minBytes, tc.left, got, r.Err())
			}
			continue
		}
		if got != 0 || !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("count %d of %d-byte items in %d bytes: got %d, %v; want 0, ErrCorrupt", tc.count, tc.minBytes, tc.left, got, r.Err())
		}
	}
	r := NewReader(appendZeros(-1, 0)) // a count of 2^64-1
	if got := r.Count(1, "item"); got != 0 || r.Err() == nil {
		t.Errorf("count 2^64-1: got %d, %v", got, r.Err())
	}
}

// appendZeros returns a blob holding count as a varint (math.MaxUint64 for
// a negative count) followed by left zero bytes.
func appendZeros(count, left int) []byte {
	var w Writer
	if count < 0 {
		w.Uint(math.MaxUint64)
	} else {
		w.Uint(uint64(count))
	}
	return append(w.Bytes(), make([]byte, left)...)
}

// TestIntInRange: IntIn accepts both ends of its range and latches a
// defect, returning the low bound, just outside either.
func TestIntInRange(t *testing.T) {
	for _, tc := range []struct {
		v  int64
		ok bool
	}{
		{-2, true}, {5, true}, {0, true}, {-3, false}, {6, false}, {math.MaxInt64, false}, {math.MinInt64, false},
	} {
		var w Writer
		w.Int(tc.v)
		r := NewReader(w.Bytes())
		got := r.IntIn(-2, 5, "value")
		switch {
		case tc.ok && (got != int(tc.v) || r.Err() != nil):
			t.Errorf("IntIn(%d) = %d, %v; want it back", tc.v, got, r.Err())
		case !tc.ok && (got != -2 || !errors.Is(r.Err(), ErrCorrupt)):
			t.Errorf("IntIn(%d) = %d, %v; want -2, ErrCorrupt", tc.v, got, r.Err())
		}
	}
}

// TestBoolRejectsAboveOne: a bool is exactly one byte, 0 or 1; any other
// byte, or none, is a defect.
func TestBoolRejectsAboveOne(t *testing.T) {
	for _, b := range []byte{2, 0x80, 0xff} {
		r := NewReader([]byte{b})
		if r.Bool() || !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("Bool of byte %#x: err %v, want ErrCorrupt", b, r.Err())
		}
	}
	r := NewReader(nil)
	if r.Bool() || !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("Bool of no byte: err %v, want ErrCorrupt", r.Err())
	}
}

// TestDoneReportsTrailingBytes: bytes nothing read are a defect, and Done
// reports an earlier defect rather than the trailing bytes.
func TestDoneReportsTrailingBytes(t *testing.T) {
	var w Writer
	w.Uint(1)
	w.Uint(2)
	r := NewReader(w.Bytes())
	r.Uint()
	if err := r.Done(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Done with a byte unread: %v, want ErrCorrupt", err)
	}
	r = NewReader([]byte{2, 0})
	r.Bool()
	if err := r.Done(); err == nil || err.Error() != "ckpt: corrupt checkpoint: bad bool" {
		t.Fatalf("Done after a bad bool with a byte left: %v, want the bad bool", err)
	}
}
