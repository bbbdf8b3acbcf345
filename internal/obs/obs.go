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
// sequence is deterministic. A Record call still claims its slot with one
// atomic add; the synchronisation stays although no caller needs it today.
// Readers must be externally synchronized with the writer — the fleet reads
// on the tenant's home shard, the CLIs read after the run.
package obs

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
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
// slices, no pointers — so writing one is a struct copy into the ring.
// Fields that don't apply to a record's level keep their zero value
// (index fields use -1 for "not applicable"):
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
// Resp, Alpha and Gamma are therefore mutually exclusive, and the ring
// relies on it: a recorder retains Resp on tick records only, Alpha on L1
// summaries only and Gamma on every other record (see cell); whichever of
// the three does not apply reads back as zero.
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

// Recorder is a fixed-size ring of the most recent Records. The zero
// value is not usable; a nil *Recorder is — every method no-ops (or
// returns emptiness) on a nil receiver, which is how instrumented code
// stays allocation-free when telemetry is off.
type Recorder struct {
	ring []cell
	head atomic.Uint64 // total records ever written
	tick atomic.Int64  // current engine tick, stamped onto writes
}

// cell is a Record as the ring holds it: 48 bytes against Record's 72, so
// a tenant's resident ring is capacity × 48 B. The fields are ordered
// widest first so nothing pads, the three booleans share one byte, and
// Resp, Alpha and Gamma — never set together (see Record) — share slot.
type cell struct {
	tick     int64
	decideNs int64
	cost     float64
	slot     uint64 // Resp, Alpha or Gamma bits, by slotOf(level, comp)
	explored int32
	module   int16
	comp     int16
	freqIdx  int16
	stale    int16
	level    Level
	flags    uint8
}

const (
	flagOn uint8 = 1 << iota
	flagQoS
	flagDegraded
)

// The field of a Record its cell's slot retains.
const (
	slotGamma = iota
	slotResp
	slotAlpha
)

// slotOf is the exclusivity rule of the Record doc comment: tick records
// carry Resp, L1 summaries (Comp == -1) carry Alpha, and Gamma is the only
// one of the three any other record carries.
func slotOf(level Level, comp int16) int {
	switch {
	case level == LevelTick:
		return slotResp
	case level == LevelL1 && comp == -1:
		return slotAlpha
	}
	return slotGamma
}

// pack stores rec, stamped with tick, into the cell. Both directions
// assign field by field: a composite literal through the pointer is built
// in a temporary and copied, which costs more than the rest of a write.
func (c *cell) pack(rec *Record, tick int64) {
	var slot uint64
	switch slotOf(rec.Level, rec.Comp) {
	case slotResp:
		slot = math.Float64bits(rec.Resp)
	case slotAlpha:
		slot = rec.Alpha
	default:
		slot = math.Float64bits(rec.Gamma)
	}
	var flags uint8
	if rec.On {
		flags |= flagOn
	}
	if rec.QoS {
		flags |= flagQoS
	}
	if rec.Degraded {
		flags |= flagDegraded
	}
	c.tick = tick
	c.decideNs = rec.DecideNs
	c.cost = rec.Cost
	c.slot = slot
	c.explored = rec.Explored
	c.module = rec.Module
	c.comp = rec.Comp
	c.freqIdx = rec.FreqIdx
	c.stale = rec.Stale
	c.level = rec.Level
	c.flags = flags
}

// unpack rebuilds the record the cell was packed from.
func (c *cell) unpack(rec *Record) {
	*rec = Record{} // dst may be a reused buffer: no field keeps what it held
	rec.Tick = c.tick
	rec.Level = c.level
	rec.Module = c.module
	rec.Comp = c.comp
	rec.FreqIdx = c.freqIdx
	rec.On = c.flags&flagOn != 0
	rec.QoS = c.flags&flagQoS != 0
	rec.Explored = c.explored
	rec.DecideNs = c.decideNs
	rec.Cost = c.cost
	rec.Degraded = c.flags&flagDegraded != 0
	rec.Stale = c.stale
	switch slotOf(c.level, c.comp) {
	case slotResp:
		rec.Resp = math.Float64frombits(c.slot)
	case slotAlpha:
		rec.Alpha = c.slot
	default:
		rec.Gamma = math.Float64frombits(c.slot)
	}
}

// NewRecorder returns a recorder retaining the most recent capacity
// records.
func NewRecorder(capacity int) (*Recorder, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("obs: recorder capacity %d, need >= 1", capacity)
	}
	return &Recorder{ring: make([]cell, capacity)}, nil
}

// Enabled reports whether records will actually be retained. It is the
// one-branch guard instrumented code uses before building a Record.
func (r *Recorder) Enabled() bool { return r != nil }

// Capacity returns the ring size (0 for a nil recorder).
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.ring)
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
	r.tick.Store(tick)
}

// Tick returns the currently stamped tick.
func (r *Recorder) Tick() int64 {
	if r == nil {
		return 0
	}
	return r.tick.Load()
}

// Record appends rec to the ring, stamping the current tick over
// rec.Tick and overwriting the oldest entry once the ring is full. The
// hierarchy calls it from one goroutine; the atomic slot claim keeps
// concurrent writers safe all the same. Never allocates.
//
//hpm:hotpath
func (r *Recorder) Record(rec Record) {
	if r == nil {
		return
	}
	seq := r.head.Add(1) - 1
	r.ring[seq%uint64(len(r.ring))].pack(&rec, r.tick.Load())
}

// Total returns how many records were ever written, including ones the
// ring has since overwritten. It is also the cursor one past the newest
// record (see Since).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.head.Load()
}

// Len returns how many records the ring currently retains.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	total := r.head.Load()
	if total > uint64(len(r.ring)) {
		return len(r.ring)
	}
	return int(total)
}

// Window appends the newest max retained records to dst, oldest first,
// and returns the extended slice. max <= 0 means the whole retained
// window. Callers must not race Window with writers.
func (r *Recorder) Window(dst []Record, max int) []Record {
	if r == nil {
		return dst
	}
	n := r.Len()
	if max > 0 && max < n {
		n = max
	}
	recs, _ := r.Since(dst, r.head.Load()-uint64(n))
	return recs
}

// Oldest returns the sequence number of the oldest record the ring still
// retains (equal to Total when it retains none). A cursor below it has
// lost Oldest() - cursor records to overwrites.
func (r *Recorder) Oldest() uint64 {
	if r == nil {
		return 0
	}
	return r.head.Load() - uint64(r.Len())
}

// Since appends every retained record with sequence number >= cursor to
// dst, oldest first, and returns the extended slice plus the next
// cursor (pass it back to read only newer records next time). Records
// overwritten before the read are gone — a scraper polling Since sees
// gaps (Oldest tells how wide), never duplicates. The read decodes the
// window's cells into dst and allocates only when dst is short. Callers
// must not race Since with writers.
func (r *Recorder) Since(dst []Record, cursor uint64) ([]Record, uint64) {
	if r == nil {
		return dst, 0
	}
	total := r.head.Load()
	start := cursor
	if oldest := r.Oldest(); start < oldest {
		start = oldest
	}
	if start >= total {
		return dst, total
	}
	n := uint64(len(r.ring))
	at := len(dst)
	dst = slices.Grow(dst, int(total-start))[:at+int(total-start)]
	out := dst[at:]
	lo, hi := start%n, total%n
	if lo < hi {
		unpackAll(out, r.ring[lo:hi])
		return dst, total
	}
	// The window wraps the ring's end (lo == hi is the full ring).
	unpackAll(out, r.ring[lo:])
	unpackAll(out[n-lo:], r.ring[:hi])
	return dst, total
}

// unpackAll decodes cells into the front of dst.
func unpackAll(dst []Record, cells []cell) {
	dst = dst[:len(cells)]
	for i := range cells {
		cells[i].unpack(&dst[i])
	}
}
