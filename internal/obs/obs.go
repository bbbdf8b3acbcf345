// Package obs is the observability layer: a fixed-size, allocation-free
// flight recorder for per-decision telemetry, exporters for the recorded
// window (JSON Lines and Chrome trace_event), and small profiling
// helpers shared by the CLIs.
//
// The flight recorder follows the avionics model: a bounded ring of the
// most recent decision records, cheap enough to leave on in production
// and empty-cost when off. Every hook is nil-checkable — a nil *Recorder
// is a valid, disabled recorder, so instrumented code paths carry a
// single pointer test and no allocation. Telemetry observes, never
// steers: decisions are bit-identical with recording on or off (pinned
// by the recorder equivalence suites in internal/controller and
// internal/core).
//
// A recorder has one writer: the hierarchy records from the goroutine that
// steps its tenant — nothing fans out inside a control tick — so the record
// sequence is deterministic, and a write claims nothing atomically. Readers
// must be externally synchronized with the writer — the fleet reads on the
// tenant's home shard, the CLIs read after the run.
package obs

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"hierctl/internal/ckpt"
)

// Level says which layer of the hierarchy a record describes.
type Level uint8

const (
	// LevelTick is a per-tick engine record: whole-decision latency and
	// the interval's QoS outcome.
	LevelTick Level = iota
	// LevelL0 is a per-computer frequency decision (one per L0 tick).
	LevelL0
	// LevelL1 is a per-module power-state/load-split decision boundary.
	LevelL1
	// LevelL2 is a cluster-level load-distribution decision boundary.
	LevelL2
)

var levelNames = [...]string{"tick", "l0", "l1", "l2"}

func (l Level) String() string {
	if int(l) < len(levelNames) {
		return levelNames[l]
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// MarshalText renders the level as its lowercase name, so JSON exports
// say "l1", not 2.
func (l Level) MarshalText() ([]byte, error) {
	return []byte(l.String()), nil
}

// UnmarshalText parses the form MarshalText produced.
func (l *Level) UnmarshalText(b []byte) error {
	for i, name := range levelNames {
		if string(b) == name {
			*l = Level(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown level %q", b)
}

// Record is one flight-recorder entry. It is deliberately flat — no
// slices, no pointers. Fields that don't apply to a record's level keep
// their zero value (index fields use -1 for "not applicable"):
//
//   - tick records (LevelTick): DecideNs spans the whole hierarchical
//     decision, Resp is the interval's mean response time and QoS flags a
//     violation of the configured target. Degraded flags a tick the
//     policy decided via its deterministic fallback path (decision
//     budget exhausted or a recovered controller panic); Stale counts
//     modules whose observation the engine sanitizer held at the last
//     good value this tick.
//   - L0 records: Module/Comp locate the computer, FreqIdx is the chosen
//     frequency index, Explored/Cost/DecideNs describe the lookahead
//     search.
//   - L1 summary records (Comp == -1): Alpha packs the chosen on/off
//     mask (bit j = computer j operational; computers beyond 63 are not
//     represented), Explored/Cost/DecideNs describe the search. Each
//     summary is followed by one detail record per computer (Comp == j)
//     carrying that computer's On state and Gamma share.
//   - L2 summary records (Module == -1): Explored/Cost/DecideNs for the
//     cluster-level search, followed by one detail record per module
//     (Module == i) carrying the module's Gamma share.
//
// The recorder keeps every field of every record exactly (floats bit for
// bit), and a field at its "not applicable" value costs it no byte.
type Record struct {
	Tick     int64   `json:"tick"`
	Level    Level   `json:"level"`
	Module   int16   `json:"module"`
	Comp     int16   `json:"comp"`
	FreqIdx  int16   `json:"freqIdx"`
	On       bool    `json:"on"`
	QoS      bool    `json:"qosViolation"`
	Explored int32   `json:"explored"`
	DecideNs int64   `json:"decideNs"`
	Alpha    uint64  `json:"alpha"`
	Gamma    float64 `json:"gamma"`
	Cost     float64 `json:"cost"`
	Resp     float64 `json:"resp"`
	Degraded bool    `json:"degraded,omitempty"`
	Stale    int16   `json:"stale,omitempty"`
}

// A record as the arena holds it: a two-byte little-endian header, then
// the fields it marks present, in the header's bit order. Integers are
// zigzag varints — the tick as the delta from the previous record's, so a
// tick's records after its first carry none — Alpha is a uvarint, and the
// floats are their 8 raw bytes, so NaN payloads and −0 survive. A field is
// absent at zero, the index fields (Module, Comp, FreqIdx) at −1, a float
// when its bits are zero. Levels above 3 and Degraded, which only a
// fallback tick sets, take an extension byte after the header.
const (
	hdrLevel    = 0b11   // Level & 3
	hdrOn       = 1 << 2 // On
	hdrQoS      = 1 << 3 // QoS
	hdrExt      = 1 << 4 // extension byte: Degraded in bit 0, Level >> 2 above it
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
)

// maxRecordSize is the longest encoding: header, extension byte, three
// 10-byte 64-bit varints, three int16 and one int32 varint, three floats,
// the int16 Stale.
const maxRecordSize = 2 + 1 + 3*binary.MaxVarintLen64 + 3*3 + 5 + 3*8 + 3

// recordBudget is the arena bytes NewRecorder sets aside per record, on
// average: the records the hierarchy writes take up to 24 bytes at the
// extremes of what they carry (TestRecordEncodedSize) but 12–15 over a
// window, so a ring of them wraps without the arena ever growing
// (TestRecorderArenaFlat). A window of longer records grows it; one made
// only of fallback ticks, which only a squeezed decision budget writes,
// sits at the budget.
const recordBudget = 16

// growthCeiling is the most arena bytes a record can come to cost. An arena
// doubles from capacity × recordBudget only while it is short of capacity ×
// maxRecordSize, so it stops at the first power-of-two multiple of the
// budget that covers maxRecordSize (TestRecorderGrowthCeiling).
const growthCeiling = 128

// maxCapacity keeps every arena offset a uint32 however far the arena
// grows.
const maxCapacity = math.MaxUint32 / growthCeiling

// anchorStride is how many records apart the seek anchors are: every
// record whose sequence number is a multiple of it has one.
const anchorStride = 16

// A mark locates a record the arena holds: its sequence number, the arena
// offset it starts at and the tick of the record before it, the origin of
// its tick delta.
type mark struct {
	seq  uint64
	off  int
	tick int64
}

// Recorder is a fixed-size ring of the most recent Records, kept encoded
// in one byte arena. The zero value is not usable; a nil *Recorder is —
// every method no-ops (or returns emptiness) on a nil receiver, which is
// how instrumented code stays allocation-free when telemetry is off.
//
// The encoding is self-delimiting, so the recorder keeps no offset per
// record. A read walks forward from the nearest of the arena's oldest
// record, a seek anchor (one every anchorStride records) and the mark the
// last read left at what was then the newest: at most anchorStride − 1
// records. A record the ring no longer retains keeps its bytes until a
// write needs the room; the write then jumps the arena's tail to the
// oldest retained record the same way.
type Recorder struct {
	// arena holds the encodings of records [tail.seq, total) back to back,
	// wrapping at its end; a record may straddle it. The ring retains the
	// newest capacity of them.
	arena []byte
	// anchorOff[i] and anchorTick[i] locate record seq (seq a multiple of
	// anchorStride, i its anchorSlot) until the ring has dropped it and
	// anchorStride more: where it starts and the tick its delta starts
	// from.
	anchorOff  []uint32
	anchorTick []int64
	capacity   int
	tail       mark
	// start is the sequence number of the first record the ring held: 0,
	// or the total a checkpoint restored.
	start uint64
	total uint64
	end   int   // the offset the next record starts at
	used  int   // arena bytes from tail to end
	tick  int64 // current engine tick, stamped onto writes
	last  int64 // tick of the newest record
	// hint is where the last read ended; reads from there on (the fleet
	// folds each bin's records as it steps) walk nothing.
	hint mark
}

// NewRecorder returns a recorder retaining the most recent capacity
// records. It allocates about capacity × 16.75 bytes: the arena's
// per-record budget and a 12-byte seek anchor every 16 records.
func NewRecorder(capacity int) (*Recorder, error) {
	if capacity < 1 || capacity > maxCapacity {
		return nil, fmt.Errorf("obs: recorder capacity %d outside [1, %d]", capacity, maxCapacity)
	}
	// One anchor more than a full ring holds, so the anchor at or before
	// the oldest retained record is still there.
	anchors := (capacity + 2*anchorStride - 1) / anchorStride
	return &Recorder{
		arena:      make([]byte, capacity*recordBudget),
		anchorOff:  make([]uint32, anchors),
		anchorTick: make([]int64, anchors),
		capacity:   capacity,
	}, nil
}

// Enabled reports whether records will actually be retained. It is the
// one-branch guard instrumented code uses before building a Record.
func (r *Recorder) Enabled() bool { return r != nil }

// Capacity returns the ring size (0 for a nil recorder).
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return r.capacity
}

// SetTick sets the tick stamped onto subsequent records. The engine
// calls it once per tick, before the policy decides, so controllers
// never need the tick threaded through their signatures.
//
//hpm:hotpath
func (r *Recorder) SetTick(tick int64) {
	if r == nil {
		return
	}
	r.tick = tick
}

// Tick returns the currently stamped tick.
func (r *Recorder) Tick() int64 {
	if r == nil {
		return 0
	}
	return r.tick
}

// Record appends rec to the ring, stamping the current tick over
// rec.Tick and dropping the oldest record once the ring is full. It
// encodes into a stack buffer and copies that into the arena; it
// allocates only if the retained window and rec would overflow the arena,
// which no record mix the hierarchy writes does.
//
//hpm:hotpath
func (r *Recorder) Record(rec Record) {
	if r == nil {
		return
	}
	var buf [maxRecordSize]byte
	n := encode(&buf, &rec, r.tick-r.last)
	if r.used+n > len(r.arena) { // drop what the ring will not retain, then grow if still short
		c := uint64(r.capacity)
		r.trim(max(r.total+1, c) - c)
		if r.used+n > len(r.arena) {
			r.grow(n)
		}
	}
	if r.total%anchorStride == 0 {
		i := r.anchorSlot(r.total)
		r.anchorOff[i] = uint32(r.end)
		r.anchorTick[i] = r.last
	}
	if k := copy(r.arena[r.end:], buf[:n]); k < n {
		copy(r.arena, buf[k:n])
	}
	r.end = r.wrap(r.end + n)
	r.used += n
	r.last = r.tick
	r.total++
}

// trim moves the arena's tail up to record seq, freeing the bytes of the
// records before it.
func (r *Recorder) trim(seq uint64) {
	from := r.tail.off
	if a := seq &^ (anchorStride - 1); a > r.tail.seq {
		r.tail = r.anchor(a)
	}
	var scratch [maxRecordSize]byte
	for r.tail.seq < seq {
		r.step(&r.tail, &scratch)
	}
	if r.tail.seq == r.total {
		r.used = 0
		return
	}
	if freed := r.tail.off - from; freed >= 0 {
		r.used -= freed
	} else {
		r.used -= freed + len(r.arena)
	}
}

// grow moves the arena's records to the front of an arena at least twice
// the size with room for need more bytes, and rebases the anchors.
func (r *Recorder) grow(need int) {
	size := 2 * len(r.arena)
	for size < r.used+need {
		size *= 2
	}
	arena := make([]byte, size) //hpm:alloc cold: only a window of records averaging over recordBudget bytes reaches it
	from := r.tail.off
	k := copy(arena[:r.used], r.arena[from:])
	copy(arena[k:r.used], r.arena)
	for seq := (r.tail.seq + anchorStride - 1) &^ (anchorStride - 1); seq < r.total; seq += anchorStride {
		i := r.anchorSlot(seq)
		off := int(r.anchorOff[i]) - from
		if off < 0 {
			off += len(r.arena)
		}
		r.anchorOff[i] = uint32(off)
	}
	r.tail.off, r.end = 0, r.used
	r.hint = r.tail
	r.arena = arena
}

// anchor returns the mark of record seq, a multiple of anchorStride from
// the arena's tail to the next record written.
func (r *Recorder) anchor(seq uint64) mark {
	if seq == r.total {
		return mark{seq, r.end, r.last}
	}
	i := r.anchorSlot(seq)
	return mark{seq, int(r.anchorOff[i]), r.anchorTick[i]}
}

// anchorSlot returns the index of record seq's anchor, seq a multiple of
// anchorStride.
func (r *Recorder) anchorSlot(seq uint64) int {
	return int(seq / anchorStride % uint64(len(r.anchorOff)))
}

// wrap folds an offset up to one arena length past its end back into it.
func (r *Recorder) wrap(off int) int {
	if off >= len(r.arena) {
		return off - len(r.arena)
	}
	return off
}

// view returns the arena from offset off on: a slice of the arena, or of
// scratch when a record starting there could straddle the arena's end. It
// holds the whole encoding of the record at off, and maybe bytes past it.
func (r *Recorder) view(off int, scratch *[maxRecordSize]byte) []byte {
	if off+maxRecordSize <= len(r.arena) {
		return r.arena[off:]
	}
	k := copy(scratch[:], r.arena[off:])
	copy(scratch[k:], r.arena)
	return scratch[:]
}

// step moves m past the record it locates to the next one.
func (r *Recorder) step(m *mark, scratch *[maxRecordSize]byte) {
	n, dtick := span(r.view(m.off, scratch))
	m.seq++
	m.off = r.wrap(m.off + n)
	m.tick += dtick
}

// Total returns how many records were ever written, including ones the
// ring has since overwritten. It is also the cursor one past the newest
// record (see Since).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Checkpoint appends the recorder's Total. The ring itself is not
// written: it is a bounded window for pollers, not state a decision reads.
func (r *Recorder) Checkpoint(w *ckpt.Writer) { w.Uint(r.Total()) }

// RestoreCheckpoint empties the ring and continues numbering at the Total
// Checkpoint wrote, so cursors taken before the checkpoint stay valid: a
// poller behind it finds the records up to the checkpoint gone, as if the
// ring had overwritten them.
func (r *Recorder) RestoreCheckpoint(rd *ckpt.Reader) { r.Resume(rd.Uint()) }

// Resume empties the ring and numbers the next record total, as
// RestoreCheckpoint does with the Total it reads.
func (r *Recorder) Resume(total uint64) {
	if r == nil {
		return
	}
	r.total, r.start = total, total
	r.tail = mark{seq: total}
	r.end, r.used, r.last = 0, 0, 0
	r.hint = r.tail
}

// Len returns how many records the ring currently retains.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return int(min(r.total-r.start, uint64(r.capacity)))
}

// Window appends the newest max retained records to dst, oldest first,
// and returns the extended slice. max <= 0 means the whole retained
// window. Callers must not race Window with writers or other readers.
func (r *Recorder) Window(dst []Record, max int) []Record {
	if r == nil {
		return dst
	}
	n := r.Len()
	if max > 0 && max < n {
		n = max
	}
	recs, _ := r.Since(dst, r.total-uint64(n))
	return recs
}

// Oldest returns the sequence number of the oldest record the ring still
// retains (equal to Total when it retains none). A cursor below it has
// lost Oldest() - cursor records to overwrites.
func (r *Recorder) Oldest() uint64 {
	if r == nil {
		return 0
	}
	return r.total - uint64(r.Len())
}

// Since appends every retained record with sequence number >= cursor to
// dst, oldest first, and returns the extended slice plus the next
// cursor (pass it back to read only newer records next time). Records
// overwritten before the read are gone — a scraper polling Since sees
// gaps (Oldest tells how wide), never duplicates. The read decodes the
// window into dst and allocates only when dst is short. It leaves a hint
// for the next read, so callers must not race Since with writers or
// other readers.
func (r *Recorder) Since(dst []Record, cursor uint64) ([]Record, uint64) {
	if r == nil {
		return dst, 0
	}
	start := max(cursor, r.Oldest())
	if start >= r.total {
		return dst, r.total
	}
	at := len(dst)
	dst = slices.Grow(dst, int(r.total-start))[:at+int(r.total-start)]
	off, tick := r.seek(start)
	var scratch [maxRecordSize]byte
	for i := at; i < len(dst); i++ {
		var n int
		tick, n = decode(r.view(off, &scratch), &dst[i], tick)
		off = r.wrap(off + n)
	}
	r.hint = mark{r.total, r.end, r.last}
	return dst, r.total
}

// seek returns the arena offset of retained record seq and the tick of the
// record before it — the origin of seq's tick delta — stepping from the
// nearest mark at or before it: the arena's tail, seq's anchor or the
// hint.
func (r *Recorder) seek(seq uint64) (off int, tick int64) {
	m := r.tail
	if a := seq &^ (anchorStride - 1); a > m.seq {
		m = r.anchor(a)
	}
	if r.hint.seq > m.seq && r.hint.seq <= seq {
		m = r.hint
	}
	var scratch [maxRecordSize]byte
	for m.seq < seq {
		r.step(&m, &scratch)
	}
	return m.off, m.tick
}

// encode writes rec, dtick ticks after the previous record, into b and
// returns its length.
func encode(b *[maxRecordSize]byte, rec *Record, dtick int64) int {
	hdr := uint16(rec.Level & hdrLevel)
	n := 2
	if rec.On {
		hdr |= hdrOn
	}
	if rec.QoS {
		hdr |= hdrQoS
	}
	if rec.Degraded || rec.Level > hdrLevel {
		hdr |= hdrExt
		b[n] = byte(rec.Level>>2) << 1
		if rec.Degraded {
			b[n] |= 1
		}
		n++
	}
	if dtick != 0 {
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
	binary.LittleEndian.PutUint16(b[:], hdr)
	return n
}

// decode rebuilds into rec the record encode wrote to the start of b, tick
// being the previous record's tick, and returns rec's tick and length.
func decode(b []byte, rec *Record, tick int64) (int64, int) {
	hdr := binary.LittleEndian.Uint16(b)
	n := 2
	*rec = Record{Level: Level(hdr & hdrLevel), Module: -1, Comp: -1, FreqIdx: -1} // dst may be a reused buffer
	rec.On = hdr&hdrOn != 0
	rec.QoS = hdr&hdrQoS != 0
	if hdr&hdrExt != 0 {
		rec.Level |= Level(b[n]>>1) << 2
		rec.Degraded = b[n]&1 != 0
		n++
	}
	if hdr&hasTick != 0 {
		tick += varint(b, &n)
	}
	rec.Tick = tick
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
	return tick, n
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

// span returns the length and the tick delta of the record encoded at the
// start of b: it reads the tick delta and steps over the other fields.
func span(b []byte) (n int, dtick int64) {
	hdr := binary.LittleEndian.Uint16(b)
	n = 2
	if hdr&hdrExt != 0 {
		n++
	}
	if hdr&hasTick != 0 {
		dtick = varint(b, &n)
	}
	n = skipVarints(b, n, bits.OnesCount16(hdr&(hasModule|hasComp|hasFreqIdx|hasExplored|hasDecideNs|hasAlpha)))
	n += 8 * bits.OnesCount16(hdr&(hasGamma|hasCost|hasResp))
	if hdr&hasStale != 0 {
		n = skipVarints(b, n, 1)
	}
	return n, dtick
}

// skipVarints returns the offset past the k varints starting at b[n:],
// each ending at its first byte with the high bit clear.
func skipVarints(b []byte, n, k int) int {
	for ; k > 0; n++ {
		if b[n] < 0x80 {
			k--
		}
	}
	return n
}
