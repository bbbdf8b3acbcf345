package obs

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// A record as the arena holds it is coded against the one before it in its
// block: the anchorStride records from a seek anchor, or from where Resume
// restarted the numbering. A pred carries what the next record is coded
// against, and the first record of a block is coded against resetPred, so
// it decodes alone and carries its tick in full.
//
// Byte 0 holds the level in its low two bits (Level & 3) and, in bit 4, an
// extension byte right after it: Degraded in bit 0, the fallback flag in
// bit 1, and then, in a compact record, a Stale varint at its end (bit 2);
// in a fallback one, Level >> 2 (bits 2-7). A compact record's other bits
// of byte 0 depend on its kind:
//
//   - a tick record (LevelTick; no index, FreqIdx, On, Explored, Alpha,
//     Gamma or Cost): bits 2-3 code Resp, bit 5 a tick delta, bit 6 QoS,
//     bit 7 a DecideNs.
//   - every other level codes its (Module, Comp) index in bits 2-3; the
//     index makes the record a decision (an L0 record, an L1 one with Comp
//     −1, an L2 one with Module −1) or a detail (the other L1 and L2 ones).
//   - a decision (no On, QoS, Gamma or Resp): bit 5 a DecideNs, bit 6 an
//     Explored that differs from the level's previous decision's, bit 7 a
//     byte after the index, set when FreqIdx (bit 0) or Alpha (bit 1)
//     differs from the previous decision's or Cost does (bits 2-3 code it).
//   - a detail (only On and Gamma): bit 5 On, bits 6-7 code Gamma.
//
// Then, in order: the extension byte, the tick (a zigzag varint: in full in
// a block's first record, else a delta from the predicted tick, which is
// the previous record's, one on after a tick record; a record other than a
// tick record carries none past its block's first, so a jump falls back),
// the index bytes, the decision's extra byte, Explored and DecideNs as
// uvarints, FreqIdx as a zigzag varint, Alpha as a uvarint, the float, and
// the extension's Stale as a zigzag varint. An index costs nothing when it
// is the one its level's first record had at the previous tick, the one
// after the level's previous record (the next computer; the next module at
// L2) or an L2 summary's; one byte below L2 when Module and Comp are both
// in [−1, 14]; two zigzag varints otherwise. A float costs nothing when it
// is bit-equal to the level's previous one of its kind or zero; otherwise
// it is stored as its XOR with that one minus the XOR's leading and
// trailing zero bytes, after a byte that counts them, or as its 8 raw bytes
// when that is no shorter.
//
// A record that fits no compact layout — a level above 3, a negative
// Explored or DecideNs, a field its kind does not carry, a tick jump
// outside a tick record — falls back to the self-contained form: a 16-bit
// header (the hdr* and has* bits below; its low byte is byte 0, its high
// byte follows the extension byte), then each field it marks present —
// integers as zigzag varints, the tick as its delta from the predicted
// tick, Alpha as a uvarint, the floats as their 8 raw bytes. A field is
// absent at zero, the index fields (Module, Comp, FreqIdx) at −1, a float
// when its bits are zero. Either way NaN payloads and −0 survive.
const (
	hdrLevel    = 0b11   // Level & 3
	hdrOn       = 1 << 2 // On
	hdrQoS      = 1 << 3 // QoS
	hdrExt      = 1 << 4 // extension byte after byte 0
	hasTick     = 1 << 5
	hasModule   = 1 << 6
	hasComp     = 1 << 7
	hasFreqIdx  = 1 << 8
	hasExplored = 1 << 9
	hasDecideNs = 1 << 10
	hasAlpha    = 1 << 11
	hasGamma    = 1 << 12
	hasCost     = 1 << 13
	hasResp     = 1 << 14
	hasStale    = 1 << 15

	extDegraded   = 1 << 0
	extFallback   = 1 << 1
	extStale      = 1 << 2 // compact only
	extLevelShift = 2      // fallback only

	tickHasTick  = 1 << 5
	tickQoS      = 1 << 6
	tickDecideNs = 1 << 7

	decDecideNs = 1 << 5
	decExplored = 1 << 6
	decMore     = 1 << 7
	moreFreqIdx = 1 << 0
	moreAlpha   = 1 << 1

	detOn = 1 << 5
)

// Index codes (byte 0, bits 2-3).
const (
	idxStart   = iota // the index the level's first record had at the previous tick
	idxNext           // the one after the level's previous record
	idxShort          // at L2 the summary's (−1, −1); below it one byte, Module+1 in the low nibble and Comp+1 in the high one
	idxVarints        // two zigzag varints
)

// Float codes.
const (
	floatSame = iota // bit-equal to the predicted float
	floatZero        // zero bits
	floatXOR         // a byte counting the XOR's leading (bits 0-2) and trailing (bits 3-5) zero bytes, then the rest of it
	floatRaw         // the 8 raw bytes
)

// maxRecordSize is the longest encoding, a fallback record's: byte 0, the
// extension byte and the header's high byte, three 10-byte 64-bit varints,
// three int16 and one int32 varint, three floats, the int16 Stale.
const maxRecordSize = 3 + 3*binary.MaxVarintLen64 + 3*3 + 5 + 3*8 + 3

// index is a record's (Module, Comp).
type index struct{ module, comp int16 }

// levelPred is what a level's next record is coded against: the index its
// first record had at the latest tick with one, its previous record's, and
// the fields of its previous decision (the tick level's previous tick
// record: its Resp is value) and of its previous detail.
type levelPred struct {
	start, prev index
	freqIdx     int16
	explored    int32
	alpha       uint64
	value       uint64 // the decision's Cost, the tick record's Resp
	gamma       uint64 // the detail's Gamma
}

// pred is what the next record is coded against.
type pred struct {
	tick      int64 // the previous record's
	fresh     bool  // no previous record: the next carries its tick in full
	afterTick bool  // the previous record is a tick record
	seen      uint8 // bit l: a level-l record is at tick
	lv        [4]levelPred
}

// resetPred is what the first record of a block is coded against.
var resetPred = pred{fresh: true, lv: [4]levelPred{
	LevelTick: {start: index{-1, -1}, prev: index{-1, -1}, freqIdx: -1},
	LevelL0:   {start: index{0, 0}, prev: index{0, -1}, freqIdx: -1},
	LevelL1:   {start: index{0, -1}, prev: index{0, -1}, freqIdx: -1},
	LevelL2:   {start: index{-1, -1}, prev: index{-1, -1}, freqIdx: -1},
}}

// nextTick is the tick the next record is predicted at.
func (p *pred) nextTick() int64 {
	if p.afterTick {
		return p.tick + 1
	}
	return p.tick
}

// Record kinds, from the level and the index.
const (
	kindTick = iota
	kindDecision
	kindDetail
)

func kindOf(level Level, ix index) int {
	switch level & hdrLevel {
	case LevelTick:
		return kindTick
	case LevelL1:
		if ix.comp != -1 {
			return kindDetail
		}
	case LevelL2:
		if ix.module != -1 {
			return kindDetail
		}
	}
	return kindDecision
}

// next is the index after ix at level l: the next module's at L2, the next
// computer's below it.
func next(l Level, ix index) index {
	if l == LevelL2 {
		return index{ix.module + 1, ix.comp}
	}
	return index{ix.module, ix.comp + 1}
}

// advance moves p past rec.
//
//hpm:hotpath
func (p *pred) advance(rec *Record) {
	l := rec.Level & hdrLevel
	ix := index{rec.Module, rec.Comp}
	if p.fresh || rec.Tick != p.tick {
		p.seen = 0
	}
	lp := &p.lv[l]
	if p.seen&(1<<l) == 0 {
		lp.start = ix
		p.seen |= 1 << l
	}
	lp.prev = ix
	switch kindOf(rec.Level, ix) {
	case kindTick:
		lp.value = math.Float64bits(rec.Resp)
	case kindDecision:
		lp.freqIdx, lp.explored, lp.alpha = rec.FreqIdx, rec.Explored, rec.Alpha
		lp.value = math.Float64bits(rec.Cost)
	case kindDetail:
		lp.gamma = math.Float64bits(rec.Gamma)
	}
	p.tick, p.fresh, p.afterTick = rec.Tick, false, rec.Level == LevelTick
}

// encode writes rec into b, coded against p, moves p past it and returns
// its length.
//
//hpm:hotpath
func encode(b *[maxRecordSize]byte, rec *Record, p *pred) int {
	n := encodeCompact(b, rec, p)
	if n == 0 {
		n = encodeFallback(b, rec, p.nextTick())
	}
	p.advance(rec)
	return n
}

// encodeCompact writes rec in its kind's compact layout and returns its
// length, or 0 when rec fits none.
//
//hpm:hotpath
func encodeCompact(b *[maxRecordSize]byte, rec *Record, p *pred) int {
	if rec.Level > LevelL2 || rec.DecideNs < 0 || rec.Explored < 0 {
		return 0
	}
	lp := &p.lv[rec.Level]
	ix := index{rec.Module, rec.Comp}
	kind := kindOf(rec.Level, ix)
	gamma, cost, resp := math.Float64bits(rec.Gamma), math.Float64bits(rec.Cost), math.Float64bits(rec.Resp)
	switch kind {
	case kindTick:
		if ix != (index{-1, -1}) || rec.FreqIdx != -1 || rec.On || rec.Explored != 0 || rec.Alpha != 0 || gamma != 0 || cost != 0 {
			return 0
		}
	case kindDecision:
		if rec.On || rec.QoS || gamma != 0 || resp != 0 {
			return 0
		}
	case kindDetail:
		if rec.QoS || rec.FreqIdx != -1 || rec.Explored != 0 || rec.DecideNs != 0 || rec.Alpha != 0 || cost != 0 || resp != 0 {
			return 0
		}
	}
	if kind != kindTick && !p.fresh && rec.Tick != p.nextTick() {
		return 0
	}
	b0 := byte(rec.Level)
	n := 1
	if rec.Degraded || rec.Stale != 0 {
		b0 |= hdrExt
		b[1] = 0
		if rec.Degraded {
			b[1] |= extDegraded
		}
		if rec.Stale != 0 {
			b[1] |= extStale
		}
		n++
	}
	if kind == kindTick {
		if d := rec.Tick - p.nextTick(); d != 0 {
			b0 |= tickHasTick
			n += binary.PutVarint(b[n:], d)
		}
		if rec.QoS {
			b0 |= tickQoS
		}
		if rec.DecideNs != 0 {
			b0 |= tickDecideNs
			n += binary.PutUvarint(b[n:], uint64(rec.DecideNs))
		}
		code, k := putFloat(b[n:], resp, lp.value)
		b0 |= code << 2
		n += k
	} else {
		if p.fresh {
			n += binary.PutVarint(b[n:], rec.Tick)
		}
		code, k := putIndex(b[n:], rec.Level, ix, lp)
		b0 |= code << 2
		n += k
		if kind == kindDecision {
			more := byte(0)
			at := n
			if rec.FreqIdx != lp.freqIdx {
				more |= moreFreqIdx
			}
			if rec.Alpha != lp.alpha {
				more |= moreAlpha
			}
			if more != 0 || cost != lp.value {
				b0 |= decMore
				n++
			}
			if rec.Explored != lp.explored {
				b0 |= decExplored
				n += binary.PutUvarint(b[n:], uint64(rec.Explored))
			}
			if rec.DecideNs != 0 {
				b0 |= decDecideNs
				n += binary.PutUvarint(b[n:], uint64(rec.DecideNs))
			}
			if more&moreFreqIdx != 0 {
				n += binary.PutVarint(b[n:], int64(rec.FreqIdx))
			}
			if more&moreAlpha != 0 {
				n += binary.PutUvarint(b[n:], rec.Alpha)
			}
			code, k := putFloat(b[n:], cost, lp.value)
			n += k
			if b0&decMore != 0 {
				b[at] = more | code<<2
			}
		} else {
			if rec.On {
				b0 |= detOn
			}
			code, k := putFloat(b[n:], gamma, lp.gamma)
			b0 |= code << 6
			n += k
		}
	}
	if rec.Stale != 0 {
		n += binary.PutVarint(b[n:], int64(rec.Stale))
	}
	b[0] = b0
	return n
}

// putIndex writes ix's index bytes, coded against lp, to the start of b and
// returns its code and their length.
//
//hpm:hotpath
func putIndex(b []byte, l Level, ix index, lp *levelPred) (byte, int) {
	switch {
	case ix == lp.start:
		return idxStart, 0
	case ix == next(l, lp.prev):
		return idxNext, 0
	case l == LevelL2:
		if ix == (index{-1, -1}) {
			return idxShort, 0
		}
	case uint16(ix.module+1) < 16 && uint16(ix.comp+1) < 16:
		b[0] = byte(ix.module+1) | byte(ix.comp+1)<<4
		return idxShort, 1
	}
	n := binary.PutVarint(b, int64(ix.module))
	return idxVarints, n + binary.PutVarint(b[n:], int64(ix.comp))
}

// putFloat writes the float v, coded against the predicted bits p, to the
// start of b and returns its code and length.
//
//hpm:hotpath
func putFloat(b []byte, v, p uint64) (byte, int) {
	x := v ^ p
	switch {
	case x == 0:
		return floatSame, 0
	case v == 0:
		return floatZero, 0
	}
	lead, trail := bits.LeadingZeros64(x)/8, bits.TrailingZeros64(x)/8
	k := 8 - lead - trail
	if k+1 >= 8 {
		binary.LittleEndian.PutUint64(b, v)
		return floatRaw, 8
	}
	b[0] = byte(lead | trail<<3)
	x >>= 8 * trail
	for i := 1; i <= k; i++ {
		b[i] = byte(x)
		x >>= 8
	}
	return floatXOR, 1 + k
}

// encodeFallback writes rec in the self-contained form, its tick as the
// delta from origin, and returns its length.
//
//hpm:hotpath
func encodeFallback(b *[maxRecordSize]byte, rec *Record, origin int64) int {
	hdr := uint16(rec.Level&hdrLevel) | hdrExt
	ext := extFallback | byte(rec.Level>>2)<<extLevelShift
	if rec.On {
		hdr |= hdrOn
	}
	if rec.QoS {
		hdr |= hdrQoS
	}
	if rec.Degraded {
		ext |= extDegraded
	}
	n := 3
	if dtick := rec.Tick - origin; dtick != 0 {
		hdr |= hasTick
		n += binary.PutVarint(b[n:], dtick)
	}
	if rec.Module != -1 {
		hdr |= hasModule
		n += binary.PutVarint(b[n:], int64(rec.Module))
	}
	if rec.Comp != -1 {
		hdr |= hasComp
		n += binary.PutVarint(b[n:], int64(rec.Comp))
	}
	if rec.FreqIdx != -1 {
		hdr |= hasFreqIdx
		n += binary.PutVarint(b[n:], int64(rec.FreqIdx))
	}
	if rec.Explored != 0 {
		hdr |= hasExplored
		n += binary.PutVarint(b[n:], int64(rec.Explored))
	}
	if rec.DecideNs != 0 {
		hdr |= hasDecideNs
		n += binary.PutVarint(b[n:], rec.DecideNs)
	}
	if rec.Alpha != 0 {
		hdr |= hasAlpha
		n += binary.PutUvarint(b[n:], rec.Alpha)
	}
	if bits := math.Float64bits(rec.Gamma); bits != 0 {
		hdr |= hasGamma
		binary.LittleEndian.PutUint64(b[n:], bits)
		n += 8
	}
	if bits := math.Float64bits(rec.Cost); bits != 0 {
		hdr |= hasCost
		binary.LittleEndian.PutUint64(b[n:], bits)
		n += 8
	}
	if bits := math.Float64bits(rec.Resp); bits != 0 {
		hdr |= hasResp
		binary.LittleEndian.PutUint64(b[n:], bits)
		n += 8
	}
	if rec.Stale != 0 {
		hdr |= hasStale
		n += binary.PutVarint(b[n:], int64(rec.Stale))
	}
	b[0], b[1], b[2] = byte(hdr), ext, byte(hdr>>8)
	return n
}

// decode rebuilds into rec the record encode wrote to the start of b,
// coded against p, moves p past it and returns its length.
//
//hpm:hotpath
func decode(b []byte, rec *Record, p *pred) int {
	b0 := b[0]
	var ext byte
	n := 1
	if b0&hdrExt != 0 {
		ext = b[1]
		n++
	}
	if ext&extFallback != 0 {
		n = decodeFallback(b, rec, p.nextTick())
		p.advance(rec)
		return n
	}
	*rec = Record{Level: Level(b0 & hdrLevel), Module: -1, Comp: -1, FreqIdx: -1, Degraded: ext&extDegraded != 0} // dst may be a reused buffer
	lp := &p.lv[rec.Level]
	rec.Tick = p.nextTick()
	if rec.Level == LevelTick {
		if b0&tickHasTick != 0 {
			rec.Tick += varint(b, &n)
		}
		rec.QoS = b0&tickQoS != 0
		if b0&tickDecideNs != 0 {
			rec.DecideNs = int64(uvarint(b, &n))
		}
		rec.Resp = getFloat(b, &n, b0>>2&3, lp.value)
	} else {
		if p.fresh {
			rec.Tick = varint(b, &n)
		}
		ix := getIndex(b, &n, b0>>2&3, rec.Level, lp)
		rec.Module, rec.Comp = ix.module, ix.comp
		if kindOf(rec.Level, ix) == kindDecision {
			var more byte
			if b0&decMore != 0 {
				more = b[n]
				n++
			}
			rec.Explored = lp.explored
			if b0&decExplored != 0 {
				rec.Explored = int32(uvarint(b, &n))
			}
			if b0&decDecideNs != 0 {
				rec.DecideNs = int64(uvarint(b, &n))
			}
			rec.FreqIdx = lp.freqIdx
			if more&moreFreqIdx != 0 {
				rec.FreqIdx = int16(varint(b, &n))
			}
			rec.Alpha = lp.alpha
			if more&moreAlpha != 0 {
				rec.Alpha = uvarint(b, &n)
			}
			rec.Cost = getFloat(b, &n, more>>2&3, lp.value)
		} else {
			rec.On = b0&detOn != 0
			rec.Gamma = getFloat(b, &n, b0>>6, lp.gamma)
		}
	}
	if ext&extStale != 0 {
		rec.Stale = int16(varint(b, &n))
	}
	p.advance(rec)
	return n
}

// getIndex reads the index coded code against lp at b[*n:] and steps *n
// past its bytes.
//
//hpm:hotpath
func getIndex(b []byte, n *int, code byte, l Level, lp *levelPred) index {
	switch code {
	case idxStart:
		return lp.start
	case idxNext:
		return next(l, lp.prev)
	case idxShort:
		if l == LevelL2 {
			return index{-1, -1}
		}
		c := b[*n]
		*n++
		return index{int16(c&0xf) - 1, int16(c>>4) - 1}
	}
	m := int16(varint(b, n))
	return index{m, int16(varint(b, n))}
}

// getFloat reads the float coded code against the predicted bits p at
// b[*n:] and steps *n past its bytes.
//
//hpm:hotpath
func getFloat(b []byte, n *int, code byte, p uint64) float64 {
	switch code {
	case floatSame:
		return math.Float64frombits(p)
	case floatZero:
		return 0
	case floatRaw:
		return float(b, n)
	}
	d := int(b[*n])
	lead, trail := d&7, d>>3
	var x uint64
	for i := 8 - lead - trail; i > 0; i-- {
		x = x<<8 | uint64(b[*n+i])
	}
	*n += 9 - lead - trail
	return math.Float64frombits(p ^ x<<(8*trail))
}

// decodeFallback rebuilds into rec the self-contained record at the start
// of b, its tick delta taken from origin, and returns its length.
//
//hpm:hotpath
func decodeFallback(b []byte, rec *Record, origin int64) int {
	hdr := uint16(b[0]) | uint16(b[2])<<8
	ext := b[1]
	n := 3
	*rec = Record{Level: Level(hdr&hdrLevel) | Level(ext>>extLevelShift)<<2, Module: -1, Comp: -1, FreqIdx: -1} // dst may be a reused buffer
	rec.On = hdr&hdrOn != 0
	rec.QoS = hdr&hdrQoS != 0
	rec.Degraded = ext&extDegraded != 0
	rec.Tick = origin
	if hdr&hasTick != 0 {
		rec.Tick += varint(b, &n)
	}
	if hdr&hasModule != 0 {
		rec.Module = int16(varint(b, &n))
	}
	if hdr&hasComp != 0 {
		rec.Comp = int16(varint(b, &n))
	}
	if hdr&hasFreqIdx != 0 {
		rec.FreqIdx = int16(varint(b, &n))
	}
	if hdr&hasExplored != 0 {
		rec.Explored = int32(varint(b, &n))
	}
	if hdr&hasDecideNs != 0 {
		rec.DecideNs = varint(b, &n)
	}
	if hdr&hasAlpha != 0 {
		rec.Alpha = uvarint(b, &n)
	}
	if hdr&hasGamma != 0 {
		rec.Gamma = float(b, &n)
	}
	if hdr&hasCost != 0 {
		rec.Cost = float(b, &n)
	}
	if hdr&hasResp != 0 {
		rec.Resp = float(b, &n)
	}
	if hdr&hasStale != 0 {
		rec.Stale = int16(varint(b, &n))
	}
	return n
}

// span returns the length of the record encoded at the start of b, coded
// against p, and moves p past it. Every field but DecideNs feeds a
// prediction, so it decodes the whole record.
//
//hpm:hotpath
func span(b []byte, p *pred) int {
	var rec Record
	return decode(b, &rec, p)
}

// uvarint reads the uvarint at b[*n:] and steps *n past it.
func uvarint(b []byte, n *int) uint64 {
	v, k := binary.Uvarint(b[*n:])
	*n += k
	return v
}

// varint reads the zigzag varint at b[*n:] and steps *n past it.
func varint(b []byte, n *int) int64 {
	v, k := binary.Varint(b[*n:])
	*n += k
	return v
}

// float reads the 8 raw bytes at b[*n:] and steps *n past them.
func float(b []byte, n *int) float64 {
	v := math.Float64frombits(binary.LittleEndian.Uint64(b[*n:]))
	*n += 8
	return v
}
