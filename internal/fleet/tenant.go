package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hierctl/internal/cluster"
	"hierctl/internal/controller"
	"hierctl/internal/core"
	"hierctl/internal/des"
	"hierctl/internal/obs"
	"hierctl/internal/workload"
)

// TenantConfig describes one tenant cluster and its observation cadence.
type TenantConfig struct {
	// Spec is the tenant's cluster hardware.
	Spec cluster.Spec
	// Core configures the tenant's controller hierarchy. Seed drives all
	// of the tenant's random streams. The offline learning is shared by
	// every tenant of the fleet with the same learning fingerprint, and
	// held in memory only: a new process learns it again.
	Core core.Config
	// Store parameterizes the tenant's virtual object store, built from
	// StoreSeed. Every tenant owns a private store: its temporal-locality
	// state mutates as requests are sampled.
	Store     workload.StoreConfig
	StoreSeed int64
	// BinSeconds is the observation bin width (an integer multiple of
	// T_L0); Start is the workload-clock time of the first bin.
	BinSeconds float64
	Start      float64
	// Calibration is an optional arrival-count history used to tune the
	// Kalman filters before the first observation (≥ 8 bins to engage).
	Calibration []float64
	// Failures is an optional injection plan (scenario failure plans,
	// times relative to the first observation bin): events are quantized
	// to T_L0 boundaries by the session engine; entries whose (Module,
	// Comp) indices are not in Spec are skipped. The plan is part of the
	// tenant's configuration, so snapshots persist it and a restored
	// tenant carries on with it from the checkpointed tick.
	Failures []workload.FailureEvent
	// TelemetryRecords sizes the tenant's decision flight recorder (the
	// retained window of per-tick and per-controller records served by
	// Fleet.Telemetry, which Stats does not read); 0 disables recording,
	// and at most 1 << 20. The recorder is allocated at create
	// (obs.NewRecorder gives its bytes a record). Part of the
	// configuration, so snapshots persist it; the ring itself is
	// ephemeral — a restored tenant's starts empty, its Total carried on
	// from the checkpoint.
	TelemetryRecords int
}

// maxTelemetryRecords bounds TenantConfig.TelemetryRecords, and so the
// recorder allocated at create and the most its ring grows to if every
// record took the longest encoding (obs's TestRecorderGrowthCeiling).
// The size arrives from outside the process — a flag, a snapshot or a
// journal frame — and sizes an allocation made before anything else about
// the tenant is checked, so a crafted or corrupt frame must not be able
// to name an arbitrary one.
const maxTelemetryRecords = 1 << 20

// CheckTelemetryRecords reports whether n is a valid
// TenantConfig.TelemetryRecords.
func CheckTelemetryRecords(n int) error {
	if n < 0 || n > maxTelemetryRecords {
		return fmt.Errorf("telemetry records %d outside [0, %d]", n, maxTelemetryRecords)
	}
	return nil
}

// maxBinCount bounds one bin's arrival count. Like TelemetryRecords the
// count arrives from outside the process — an Observe call, a batch entry,
// a base or delta frame replayed on restore — and sizes an allocation (the
// feed's request batch), so it must not be able to name an arbitrary one:
// 1e13 is an out-of-memory throw no recover sees.
const maxBinCount = 1e6

// CheckBinCount reports whether count is a valid arrival count for one
// bin: finite and within [0, 1e6].
func CheckBinCount(count float64) error {
	if !(count >= 0 && count <= maxBinCount) { // NaN fails both
		return fmt.Errorf("count %v outside [0, %g]", count, float64(maxBinCount))
	}
	return nil
}

// TenantState is the progress report served by Fleet.State. The JSON tags
// are hpmserve's wire format for it.
type TenantState struct {
	ID        string  `json:"id"`
	Computers int     `json:"computers"`
	Bins      int     `json:"bins"`
	Steps     int     `json:"steps"`
	SimTime   float64 `json:"simTime"`
	// Quarantined marks a tenant whose controller stack panicked: its
	// stepping operations return ErrTenantQuarantined until it is closed.
	Quarantined bool `json:"quarantined,omitempty"`
	// LastDecision is the most recent observation's decision (nil before
	// the first observation).
	LastDecision *core.BinDecision `json:"lastDecision,omitempty"`
}

// tenant pairs one manager hierarchy with its live session. All fields
// are owned by the tenant's home shard after registration; the fleet
// only reads the immutable id and home pointers.
type tenant struct {
	id   string
	cfg  TenantConfig
	mgr  *core.Manager
	sess *core.Session
	home *shard
	sub  int // T_L0 steps per observation bin
	// gen is the fleet-wide registration generation, assigned when the
	// tenant is registered and immutable after. It distinguishes
	// incarnations of the same id (close + recreate) for the journal's
	// per-tenant marks; it is process-local and never persisted.
	gen uint64

	// bins counts the bins applied cleanly: the absolute index the journal's
	// marks and delta frames count in.
	bins int
	// journaled is set once a journal has captured the tenant's checkpoint;
	// from then on observations logs every count past it, and the journal
	// drops the prefix its marks have made durable (see Journal.Append).
	// Without a journal a tenant logs nothing: snapshots carry its
	// checkpoint, so nothing it keeps grows with uptime.
	journaled    bool
	observations obsLog
	// durable is the bin before which the journal holds every count: the
	// tenant's mark, published by Journal.Append once its frames are
	// fsynced. The log reuses its blocks wholly before it (see obsLog.add).
	durable atomic.Int64

	// halt is what the tenant reports once its session stopped mid-bin
	// (see haltState); nil while the session can step.
	halt *haltState

	// The tenant's share of the shard's telemetry (see shard.count): the
	// operational computers after the last clean bin, and the three
	// cumulative tick counters the shard's worst-tenant rankings go by.
	operational          int
	qos, degraded, stale uint64

	// closed is set by the tenant's close job, on the home shard, and read
	// only there: whatever reaches the shard after it — a sweep that listed
	// the tenant, a step that raced the close — finds the tenant gone.
	closed bool

	// quarantined latches true when a panic was recovered while stepping
	// this tenant (see Fleet.stepTenant). Atomic because readers off the
	// home shard (admit, CloseTenant once its job ran) may inspect it while
	// the shard is mid-job; it never resets — a quarantined tenant's only
	// exit is CloseTenant.
	quarantined atomic.Bool
}

// newTenant builds a tenant's manager and session, for a create and a
// restore alike. The learned artifacts come through the fleet's store —
// shared with every tenant of the same fingerprint, learned only when the
// store does not hold them. On error no store reference is left behind;
// the owner of a built tenant releases them (mgr.Release) when it
// discards the tenant.
func newTenant(id string, tc TenantConfig, artifacts *core.ArtifactStore) (_ *tenant, err error) {
	if err := CheckTelemetryRecords(tc.TelemetryRecords); err != nil {
		return nil, fmt.Errorf("fleet: tenant %s: %w", id, err)
	}
	mgr, err := artifacts.NewManager(tc.Spec, tc.Core)
	if err != nil {
		return nil, fmt.Errorf("fleet: tenant %s: %w", id, err)
	}
	defer func() {
		if err != nil {
			mgr.Release()
		}
	}()
	if tc.TelemetryRecords > 0 {
		rec, err := obs.NewRecorder(tc.TelemetryRecords)
		if err != nil {
			return nil, fmt.Errorf("fleet: tenant %s: %w", id, err)
		}
		// Attach before NewSession: a session records into the recorder
		// its manager had when the session was opened.
		mgr.SetRecorder(rec)
	}
	// The derivation hierctl.NewStore uses: a batch run at the same seed and
	// configuration draws the same demands and popularity stream.
	store, err := workload.NewStore(des.NewStream(tc.StoreSeed, "store"), tc.Store)
	if err != nil {
		return nil, fmt.Errorf("fleet: tenant %s: %w", id, err)
	}
	sess, err := mgr.NewSession(store, core.SessionConfig{
		BinSeconds:  tc.BinSeconds,
		Start:       tc.Start,
		Calibration: tc.Calibration,
		Failures:    tc.Failures,
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: tenant %s: %w", id, err)
	}
	return &tenant{
		id:   id,
		cfg:  tc,
		mgr:  mgr,
		sess: sess,
		sub:  int(tc.BinSeconds/controller.PeriodL0 + 0.5),
	}, nil
}

// step applies one observation bin and logs it. It builds no decision:
// the session keeps the one in force, and whoever sends it off the home
// shard (an Observe reply, a batch entry that asked, state) copies it out
// with sess.Decision there. Every bin a tenant ever applies passes through
// here — live, batched or replayed — so this is where its count is checked.
// The controllers decide in sc, the Scratch of the goroutine stepping the
// tenant — its home shard's, or a restore worker's — and the decisions
// are counted into tl, the home shard's tally (nil in a restore).
func (t *tenant) step(sc *controller.Scratch, tl *core.Tally, count float64) error {
	if err := CheckBinCount(count); err != nil {
		return fmt.Errorf("fleet: tenant %s bin %d: %w", t.id, t.bins, err)
	}
	if err := t.sess.StepBinIn(sc, tl, count); err != nil {
		return err
	}
	t.bins++
	if t.journaled {
		t.observations.add(count, int(t.durable.Load()))
	}
	return nil
}

// state reports the tenant's progress. Runs on the home shard. The last
// decision is the session's — refreshed only by a bin that stepped cleanly,
// so a tenant quarantined mid-stream reports its last good one and a
// tenant with no bin applied reports none. A halted tenant reports what
// it froze at the halt.
func (t *tenant) state() TenantState {
	st := TenantState{
		ID:          t.id,
		Computers:   t.cfg.Spec.Computers(),
		Quarantined: t.quarantined.Load(),
	}
	if h := t.halt; h != nil {
		st.Bins, st.Steps, st.SimTime, st.LastDecision = t.bins, h.Steps, h.SimTime, h.Decision
		return st
	}
	st.Bins, st.Steps, st.SimTime = t.sess.Progress()
	if t.bins > 0 {
		dec := t.sess.Decision()
		st.LastDecision = &dec
	}
	return st
}

// haltState is what a tenant reports once its session stopped mid-bin — a
// step that panicked or failed after its bin began. The session has no
// consistent state from then on, so it has no checkpoint; the tenant is
// quarantined and never steps again. Frozen at the halt, this is its last
// clean bin's progress and decision and the flight recorder's total; a
// base carries it in place of a checkpoint, and the restored tenant serves
// it over a fresh session, so State and the telemetry cursor read across a
// restart as they did before it. Read-only once frozen.
type haltState struct {
	Steps    int
	SimTime  float64
	Decision *core.BinDecision // nil before the first clean bin
	Total    uint64
}

// freeze records t's haltState. Runs on the home shard, right after the
// step that halted.
func (t *tenant) freeze() {
	h := &haltState{Total: t.mgr.Recorder().Total()}
	_, h.Steps, h.SimTime = t.sess.Progress()
	if t.bins > 0 {
		dec := t.sess.Decision()
		h.Decision = &dec
	}
	t.halt = h
}

// logBlockCounts is the counts one block of a count log holds: 127 counts
// and the link fill the runtime's 1024-byte size class exactly (128 would
// spill into the 1152-byte class).
const logBlockCounts = 127

// logBlock is one link of a tenant's count log.
type logBlock struct {
	counts [logBlockCounts]float64
	next   *logBlock
}

// logBlockPool holds the dropped count blocks of every tenant in the
// process, so a log borrows memory for the counts its journal has not yet
// made durable and a tenant that stalled through one long interval holds
// no more than a normal interval's blocks two Appends later. A block's
// counts are always written before they are read, so a block is not
// cleared on its way back.
var logBlockPool = sync.Pool{New: func() any { return new(logBlock) }}

// putLogBlock hands a dropped block back to logBlockPool.
func putLogBlock(b *logBlock) {
	b.next = nil
	logBlockPool.Put(b)
}

// obsLog is a journaled tenant's count stream past its last durable
// mark: the counts of bins [from, len()), held in a linked list of
// logBlocks. The journal drops the prefix its marks have made durable,
// and drop returns every block that lies wholly before it to
// logBlockPool; between drops, add reuses a block that lies wholly before
// the durable bin the last Append published. So the log spans about one
// journal interval, and a steady tenant's log allocates nothing once it
// holds that interval's blocks. The zero value is an empty log from bin 0.
//
// tail hands out views of the blocks, not copies: Journal.Append copies
// each delta out of the view its sweep took right before encoding it,
// after the sweep returned and while the tenant keeps stepping. That is
// safe because add only writes past len() — into the last block's free
// slots, or a block it links behind the last — so a view's counts stay as
// they were, and a view's reader never follows its last block's link,
// the one field add rewrites. A block add reuses lies wholly before the
// durable bin, which Append publishes only after it copied every view it
// took and fsynced them, and every later view starts at or past it. drop
// and restart recycle blocks only inside a journal sweep — Append's, a
// compaction's capture or Close's — under Journal.mu, which the Append
// copying a view holds until it is done with it.
type obsLog struct {
	// first and last are the log's blocks (nil while it holds no count);
	// first.counts[0] is bin base.
	first, last *logBlock
	base        int
	from, end   int
}

// len returns the bin one past the last logged count.
func (l *obsLog) len() int { return l.end }

// add logs the count of bin len(). When it needs a new block, it reuses
// the first one if that lies wholly before durable, the bin before which
// the journal holds every count.
func (l *obsLog) add(count float64, durable int) {
	switch {
	case l.first == nil:
		l.first = logBlockPool.Get().(*logBlock)
		l.last, l.base = l.first, l.end
	case (l.end-l.base)%logBlockCounts != 0:
	case l.first != l.last && l.base+logBlockCounts <= durable:
		b := l.first
		l.first, l.base = b.next, l.base+logBlockCounts
		l.from = max(l.from, l.base)
		b.next = nil
		l.last.next, l.last = b, b
	default:
		b := logBlockPool.Get().(*logBlock)
		l.last.next, l.last = b, b
	}
	l.last.counts[(l.end-l.base)%logBlockCounts] = count
	l.end++
}

// logView is a run of a count log's counts, from counts[off] of block
// first on: the n counts tail handed out.
type logView struct {
	first  *logBlock
	off, n int
}

// tail returns a view of the counts from bin from on (empty when there are
// none), valid until the next drop or restart. from must not precede the
// log's start.
func (l *obsLog) tail(from int) logView {
	if from >= l.end {
		return logView{}
	}
	b, p := l.first, from-l.base
	for ; p >= logBlockCounts; p -= logBlockCounts {
		b = b.next
	}
	return logView{first: b, off: p, n: l.end - from}
}

// appendTo appends the view's counts to dst. It reads the link of a block
// only while counts past that block remain, so it never reads the one an
// add may be writing.
func (v logView) appendTo(dst []float64) []float64 {
	if v.n == 0 {
		return dst
	}
	b, off, n := v.first, v.off, v.n
	for {
		k := min(n, logBlockCounts-off)
		dst = append(dst, b.counts[off:off+k]...)
		if n -= k; n == 0 {
			return dst
		}
		b, off = b.next, 0
	}
}

// drop forgets the counts before bin upto, returning to the pool every
// block that lies wholly before it.
func (l *obsLog) drop(upto int) {
	switch {
	case upto <= l.from:
	case upto >= l.end:
		l.restart(upto)
	default:
		// The block holding bin upto stays, so first never passes last.
		for l.base+logBlockCounts <= upto {
			b := l.first
			l.first, l.base = b.next, l.base+logBlockCounts
			putLogBlock(b)
		}
		l.from = upto
	}
}

// restart empties the log to start at bin at, returning its blocks to the
// pool.
func (l *obsLog) restart(at int) {
	for b := l.first; b != nil; {
		next := b.next
		putLogBlock(b)
		b = next
	}
	*l = obsLog{from: at, end: at}
}
