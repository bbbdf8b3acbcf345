package fleet

import (
	"fmt"
	"sync/atomic"

	"hierctl/internal/cluster"
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
	// Fleet.Telemetry); 0 disables recording. The recorder allocates about
	// 16.75 bytes per record at create (a 16-byte average arena budget and
	// a 12-byte seek anchor every 16 records), so at most 1 << 20
	// (≈ 17 MB); records averaging over the budget — none the hierarchy
	// writes on the daemon's tenant shapes — would double the arena, to
	// 128 bytes per record at worst. Part of the configuration, so
	// snapshots persist it; the ring itself is ephemeral — a restored
	// tenant's starts empty, its Total carried on from the checkpoint.
	TelemetryRecords int
}

// maxTelemetryRecords bounds TenantConfig.TelemetryRecords: ≈ 17 MB of
// recorder at create, 128 MB if its arena ever doubled three times.
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

	// halt is what the tenant reports once its session stopped mid-bin
	// (see haltState); nil while the session can step.
	halt *haltState

	// The tenant's share of the step-time telemetry fold (see shard.fold):
	// how far its flight recorder has been folded, the operational
	// computers after the last clean bin, and the three cumulative tick
	// counters the shard's worst-tenant rankings go by.
	cursor               uint64
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
		// Attach before NewSession so the engine harness records ticks.
		mgr.SetRecorder(rec)
	}
	mgr.InjectPlan(tc.Failures)
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
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: tenant %s: %w", id, err)
	}
	return &tenant{
		id:   id,
		cfg:  tc,
		mgr:  mgr,
		sess: sess,
		sub:  int(tc.BinSeconds/tc.Core.L0.PeriodSeconds + 0.5),
	}, nil
}

// step applies one observation bin and logs it. It builds no decision:
// the session keeps the one in force, and whoever sends it off the home
// shard (an Observe reply, a batch entry that asked, state) copies it out
// with sess.Decision there. Every bin a tenant ever applies passes through
// here — live, batched or replayed — so this is where its count is checked.
func (t *tenant) step(count float64) error {
	if err := CheckBinCount(count); err != nil {
		return fmt.Errorf("fleet: tenant %s bin %d: %w", t.id, t.bins, err)
	}
	if err := t.sess.StepBin(count); err != nil {
		return err
	}
	t.bins++
	if t.journaled {
		t.observations.add(count)
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

// obsLog is a journaled tenant's count stream past its last durable
// mark: the counts of bins [from, len()). The journal drops the prefix its
// marks have made durable, so the log spans about two journal intervals,
// and a dropped prefix leaves its backing array to the counts after it:
// a steady tenant's log allocates nothing once it has grown to its
// interval. The zero value is an empty log from bin 0.
//
// tail hands out views of the backing array, not copies: Journal.Append
// encodes each delta straight from the view its sweep took, after the sweep
// returned and while the tenant keeps stepping. That is safe because add
// only writes past len() (or moves the log to a new array), so a view's
// elements stay as they were; only drop and restart rewrite elements before
// len(), and both run only inside a journal sweep — Append's, or a
// compaction's capture — under Journal.mu, which the Append encoding a view
// holds until it is done with it.
type obsLog struct {
	from   int
	counts []float64
}

// len returns the bin one past the last logged count.
func (l *obsLog) len() int { return l.from + len(l.counts) }

func (l *obsLog) add(count float64) { l.counts = append(l.counts, count) }

// tail returns a view of the counts from bin from on (nil when there are
// none), valid until the next drop or restart. from must not precede the
// log's start.
func (l *obsLog) tail(from int) []float64 {
	if from >= l.len() {
		return nil
	}
	return l.counts[from-l.from:]
}

// drop forgets the counts before bin upto, keeping the backing array.
func (l *obsLog) drop(upto int) {
	switch {
	case upto <= l.from:
	case upto >= l.len():
		l.restart(upto)
	default:
		n := copy(l.counts, l.counts[upto-l.from:])
		l.from, l.counts = upto, l.counts[:n]
	}
}

// restart empties the log to start at bin at.
func (l *obsLog) restart(at int) { l.from, l.counts = at, l.counts[:0] }
