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
// by internal/core's TestManagerRecorderEquivalence).
//
// A recorder has one writer: the hierarchy records from the goroutine that
// steps its tenant — nothing fans out inside a control tick — so the record
// sequence is deterministic, and a write claims nothing atomically. Readers
// must be externally synchronized with the writer — the fleet reads on the
// tenant's home shard, the CLIs read after the run.
package obs

import (
	"fmt"
	"math"
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
// their zero value (index fields use -1 for "not applicable"). The engine
// harness writes the tick records and the run (internal/core) the L0, L1
// and L2 ones, from the decisions the controllers return:
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
// bit). A field its record's kind does not carry, or one that repeats its
// level's previous record of the kind, costs it no byte.
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

// recordBudget is the arena bytes NewRecorder sets aside per record, on
// average. The records the hierarchy writes take up to 24 bytes at the
// extremes of what they carry (TestRecordEncodedSize), but coded against
// their block's predecessors they average 5.5–9 over a window, so a ring
// of them wraps without the arena ever growing (TestRecorderArenaFlat). It
// is the smallest whole number at least 8 % above that test's worst window
// on every shape, 9.5 B under the race detector, whose slower decisions
// take longer latency varints. A window of longer records grows the arena.
const recordBudget = 11

// growthCeiling is the most arena bytes a record can come to cost. An arena
// doubles from capacity × recordBudget only while it is short of capacity ×
// maxRecordSize, so it stops at the first power-of-two multiple of the
// budget that covers maxRecordSize (TestRecorderGrowthCeiling).
const growthCeiling = 88

// maxCapacity keeps every arena offset a uint32 however far the arena
// grows.
const maxCapacity = math.MaxUint32 / growthCeiling

// anchorStride is how many records apart the seek anchors are: every
// record whose sequence number is a multiple of it has one, and starts a
// block, whose first record is coded against resetPred.
const anchorStride = 16

// A mark locates a record the arena holds: its sequence number, the arena
// offset it starts at and what it is coded against.
type mark struct {
	seq uint64
	off int
	p   pred
}

// Recorder is a fixed-size ring of the most recent Records, kept encoded
// in one byte arena. The zero value is not usable; a nil *Recorder is —
// every method no-ops (or returns emptiness) on a nil receiver, which is
// how instrumented code stays allocation-free when telemetry is off.
//
// The encoding is self-delimiting, so the recorder keeps no offset per
// record, and each record is coded against the ones before it in its
// block, so a read decodes from a mark, which carries what its record is
// coded against. A read walks forward from the nearest of the arena's
// oldest record, a seek anchor (one every anchorStride records, where a
// block starts afresh) and the mark the last read left at what was then
// the newest: at most anchorStride − 1 records. A record the ring no
// longer retains keeps its bytes until a write needs the room; the write
// then jumps the arena's tail to the oldest retained record the same way.
type Recorder struct {
	// arena holds the encodings of records [tail.seq, total) back to back,
	// wrapping at its end; a record may straddle it. The ring retains the
	// newest capacity of them.
	arena []byte
	// anchorOff[i] is where record seq (seq a multiple of anchorStride, i
	// its anchorSlot) starts, until the ring has dropped it and
	// anchorStride more.
	anchorOff []uint32
	capacity  int
	tail      mark
	// start is the sequence number of the first record the ring held: 0,
	// or the total a checkpoint restored.
	start uint64
	total uint64
	end   int   // the offset the next record starts at
	used  int   // arena bytes from tail to end
	tick  int64 // current engine tick, stamped onto writes
	// next is what the next record is coded against.
	next pred
	// hint is where the last read ended; reads from there on (the fleet
	// folds each bin's records as it steps) walk nothing.
	hint mark
}

// NewRecorder returns a recorder retaining the most recent capacity
// records. It allocates about capacity × 11.25 bytes: the arena's
// per-record budget and a 4-byte seek anchor every 16 records.
func NewRecorder(capacity int) (*Recorder, error) {
	if capacity < 1 || capacity > maxCapacity {
		return nil, fmt.Errorf("obs: recorder capacity %d outside [1, %d]", capacity, maxCapacity)
	}
	// One anchor more than a full ring holds, so the anchor at or before
	// the oldest retained record is still there.
	anchors := (capacity + 2*anchorStride - 1) / anchorStride
	r := &Recorder{
		arena:     make([]byte, capacity*recordBudget),
		anchorOff: make([]uint32, anchors),
		capacity:  capacity,
	}
	r.Resume(0)
	return r, nil
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
	rec.Tick = r.tick
	n := encode(&buf, &rec, &r.next)
	if r.used+n > len(r.arena) { // drop what the ring will not retain, then grow if still short
		c := uint64(r.capacity)
		r.trim(max(r.total+1, c) - c)
		if r.used+n > len(r.arena) {
			r.grow(n)
		}
	}
	if r.total%anchorStride == 0 {
		r.anchorOff[r.anchorSlot(r.total)] = uint32(r.end)
	}
	if k := copy(r.arena[r.end:], buf[:n]); k < n {
		copy(r.arena, buf[k:n])
	}
	r.end = r.wrap(r.end + n)
	r.used += n
	r.total++
	if r.total%anchorStride == 0 {
		r.next = resetPred
	}
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
// the arena's tail to the next record written, which starts its block.
func (r *Recorder) anchor(seq uint64) mark {
	if seq == r.total { // its anchor is not set until it is written
		return mark{seq, r.end, resetPred}
	}
	return mark{seq, int(r.anchorOff[r.anchorSlot(seq)]), resetPred}
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
	r.moved(m, span(r.view(m.off, scratch), &m.p))
}

// moved steps m, whose p has been moved past the n-byte record it
// located, to the next record; a block starts afresh at every multiple of
// anchorStride.
func (r *Recorder) moved(m *mark, n int) {
	m.seq++
	m.off = r.wrap(m.off + n)
	if m.seq%anchorStride == 0 {
		m.p = resetPred
	}
}

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
	r.next = resetPred
	r.tail = mark{seq: total, p: resetPred}
	r.end, r.used = 0, 0
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
	m := r.seek(start)
	var scratch [maxRecordSize]byte
	for i := at; i < len(dst); i++ {
		r.moved(&m, decode(r.view(m.off, &scratch), &dst[i], &m.p))
	}
	r.hint = mark{r.total, r.end, r.next}
	return dst, r.total
}

// seek returns the mark of retained record seq, stepping from the nearest
// mark at or before it: the arena's tail, seq's anchor or the hint.
func (r *Recorder) seek(seq uint64) mark {
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
	return m
}
