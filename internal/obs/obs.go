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

// maxPageShift makes a page 2 KB, the runtime's 2048-byte size class, so a
// page the ring adds costs exactly what it holds.
const maxPageShift = 11

// initialRecordBytes is what NewRecorder sets aside per record. The records
// the hierarchy writes take up to 24 bytes at the extremes of what they
// carry (TestRecordEncodedSize), but coded against their block's
// predecessors they average 5.5–9 over a window, so on the hpmperf shapes
// a ring of them wraps in its first pages or one or two more
// (TestRecorderArenaFlat). A window of longer records adds pages.
const initialRecordBytes = 8

// maxCapacity keeps every position difference the ring compares a uint32:
// a ring holds at most a window of the longest records, the record being
// written and the unused start of the tail's page.
const maxCapacity = (math.MaxUint32 - 2<<maxPageShift) / maxRecordSize

// anchorStride is how many records apart the seek anchors are: every
// record whose sequence number is a multiple of it has one, and starts a
// block, whose first record is coded against resetPred.
const anchorStride = 16

// A mark locates a record the ring holds: its sequence number, the logical
// byte position it starts at and what it is coded against.
type mark struct {
	seq uint64
	pos uint32
	p   pred
}

// Recorder is a fixed-size ring of the most recent Records, kept encoded
// in fixed-size byte pages. The zero value is not usable; a nil *Recorder
// is — every method no-ops (or returns emptiness) on a nil receiver, which
// is how instrumented code stays allocation-free when telemetry is off.
//
// The encoding is self-delimiting, so the recorder keeps no position per
// record, and each record is coded against the ones before it in its
// block, so a read decodes from a mark, which carries what its record is
// coded against. A read walks forward from the nearest of the ring's
// oldest record, a seek anchor (one every anchorStride records, where a
// block starts afresh) and the mark the last read left at what was then
// the newest: at most anchorStride − 1 records. A record the ring no
// longer retains keeps its bytes until a write needs the room; the write
// then jumps the ring's tail to the oldest retained record the same way,
// and the pages the tail passed take the next records.
//
// Records are addressed by logical byte position, which counts every byte
// written, modulo 2³². Positions are only compared as differences from
// first, so the count may wrap.
type Recorder struct {
	// pages hold the encodings of records [tail.seq, total) back to back
	// from position tail.pos to end; a record may straddle a page end.
	// pages[base] holds the bytes from position first, which starts the
	// page the tail is in, and the pages after it, wrapping at the end of
	// pages, hold the bytes after those.
	pages [][]byte
	shift uint8 // a page is 1<<shift bytes
	base  int
	first uint32
	// anchorPos[i] is where record seq (seq a multiple of anchorStride, i
	// its anchorSlot) starts, until the ring has dropped it and
	// anchorStride more.
	anchorPos []uint32
	capacity  int
	tail      mark
	// start is the sequence number of the first record the ring held: 0,
	// or the total a checkpoint restored.
	start uint64
	total uint64
	end   uint32 // the position the next record starts at
	tick  int64  // current engine tick, stamped onto writes
	// next is what the next record is coded against.
	next pred
	// hint is where the last read ended; reads from there on (a poller
	// resuming from the cursor its last read returned) walk nothing.
	hint mark
}

// NewRecorder returns a recorder retaining the most recent capacity
// records. It allocates about capacity × 8.25 bytes: 8 B a record of pages
// in one backing, and a 4-byte seek anchor every 16 records. A page is
// 2 KB, or the whole backing, rounded up to a power of two, in a ring of
// under 256 records; the 32 KB backing of a 4096-record ring is 16 pages.
func NewRecorder(capacity int) (*Recorder, error) {
	if capacity < 1 || capacity > maxCapacity {
		return nil, fmt.Errorf("obs: recorder capacity %d outside [1, %d]", capacity, maxCapacity)
	}
	size := capacity * initialRecordBytes
	shift := min(bits.Len(uint(size-1)), maxPageShift)
	page := 1 << shift
	backing := make([]byte, (size+page-1)&^(page-1))
	pages := make([][]byte, len(backing)/page)
	for i := range pages {
		pages[i] = backing[i*page : (i+1)*page : (i+1)*page]
	}
	// One anchor more than a full ring holds, so the anchor at or before
	// the oldest retained record is still there.
	anchors := (capacity + 2*anchorStride - 1) / anchorStride
	r := &Recorder{
		pages:     pages,
		shift:     uint8(shift),
		anchorPos: make([]uint32, anchors),
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
// encodes into a stack buffer and copies that into the pages; it
// allocates only if the retained window and rec would overflow the pages,
// and then one page at a time.
//
//hpm:hotpath
func (r *Recorder) Record(rec Record) {
	if r == nil {
		return
	}
	var buf [maxRecordSize]byte
	rec.Tick = r.tick
	n := encode(&buf, &rec, &r.next)
	if r.short(n) { // drop what the ring will not retain, then add pages while still short
		c := uint64(r.capacity)
		r.trim(max(r.total+1, c) - c)
		for r.short(n) {
			r.addPage()
		}
	}
	if r.total%anchorStride == 0 {
		r.anchorPos[r.anchorSlot(r.total)] = r.end
	}
	for b := buf[:n]; len(b) > 0; {
		k := copy(r.pages[r.index(r.end)][r.end&r.mask():], b)
		b = b[k:]
		r.end += uint32(k)
	}
	r.total++
	if r.total%anchorStride == 0 {
		r.next = resetPred
	}
}

// short reports whether the pages lack the room for n more bytes.
func (r *Recorder) short(n int) bool {
	return r.end-r.first+uint32(n) > uint32(len(r.pages))<<r.shift
}

// mask selects a position's byte within its page.
func (r *Recorder) mask() uint32 { return 1<<r.shift - 1 }

// index returns the index in pages of the page holding position pos, which
// is less than one ring of pages past first.
func (r *Recorder) index(pos uint32) int {
	i := r.base + int((pos-r.first)>>r.shift)
	if i >= len(r.pages) {
		i -= len(r.pages)
	}
	return i
}

// trim moves the ring's tail up to record seq, freeing the pages before
// the one it lands in.
func (r *Recorder) trim(seq uint64) {
	if a := seq &^ (anchorStride - 1); a > r.tail.seq {
		r.tail = r.anchor(a)
	}
	var scratch [maxRecordSize]byte
	for r.tail.seq < seq {
		r.step(&r.tail, &scratch)
	}
	r.release()
}

// release hands the pages wholly before the tail's to the head of the
// ring: they come after the last page, in the same order.
func (r *Recorder) release() {
	for r.tail.pos-r.first > r.mask() {
		r.first += 1 << r.shift
		if r.base++; r.base == len(r.pages) {
			r.base = 0
		}
	}
}

// addPage adds a page after the ring's last. It takes index base, which
// the last page's successor has, and the pages from there on move up one.
func (r *Recorder) addPage() {
	r.pages = slices.Insert(r.pages, r.base, make([]byte, 1<<r.shift)) //hpm:alloc cold: only a window of records over the pages NewRecorder sets aside reaches it
	r.base++
}

// anchor returns the mark of record seq, a multiple of anchorStride from
// the ring's tail to the next record written, which starts its block.
func (r *Recorder) anchor(seq uint64) mark {
	if seq == r.total { // its anchor is not set until it is written
		return mark{seq, r.end, resetPred}
	}
	return mark{seq, r.anchorPos[r.anchorSlot(seq)], resetPred}
}

// anchorSlot returns the index of record seq's anchor, seq a multiple of
// anchorStride.
func (r *Recorder) anchorSlot(seq uint64) int {
	return int(seq / anchorStride % uint64(len(r.anchorPos)))
}

// view returns the bytes from position pos on: a slice of its page, or of
// scratch when a record starting there could cross the page's end. It
// holds the whole encoding of the record at pos, and maybe bytes past it.
func (r *Recorder) view(pos uint32, scratch *[maxRecordSize]byte) []byte {
	i, off := r.index(pos), pos&r.mask()
	if int(off)+maxRecordSize <= len(r.pages[i]) {
		return r.pages[i][off:]
	}
	k := copy(scratch[:], r.pages[i][off:])
	for k < maxRecordSize {
		if i++; i == len(r.pages) {
			i = 0
		}
		k += copy(scratch[k:], r.pages[i])
	}
	return scratch[:]
}

// step moves m past the record it locates to the next one.
func (r *Recorder) step(m *mark, scratch *[maxRecordSize]byte) {
	r.moved(m, span(r.view(m.pos, scratch), &m.p))
}

// moved steps m, whose p has been moved past the n-byte record it
// located, to the next record; a block starts afresh at every multiple of
// anchorStride.
func (r *Recorder) moved(m *mark, n int) {
	m.seq++
	m.pos += uint32(n)
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
// RestoreCheckpoint does with the Total it reads. The ring keeps its pages:
// the next record starts where the last one ended.
func (r *Recorder) Resume(total uint64) {
	if r == nil {
		return
	}
	r.total, r.start = total, total
	r.next = resetPred
	r.tail = mark{seq: total, pos: r.end, p: resetPred}
	r.release()
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
		r.moved(&m, decode(r.view(m.pos, &scratch), &dst[i], &m.p))
	}
	r.hint = mark{r.total, r.end, r.next}
	return dst, r.total
}

// seek returns the mark of retained record seq, stepping from the nearest
// mark at or before it: the ring's tail, seq's anchor or the hint.
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
