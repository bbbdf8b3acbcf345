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
	// every tenant of the fleet with the same learning fingerprint
	// regardless of ArtifactDir, which (optional) additionally caches it
	// on disk across fleets and processes.
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
	// tenant's configuration, so snapshots persist it and restores replay
	// it deterministically.
	Failures []workload.FailureEvent
	// TelemetryRecords sizes the tenant's decision flight recorder (the
	// retained window of per-tick and per-controller records served by
	// Fleet.Telemetry); 0 disables recording. The recorder allocates about
	// 16.75 bytes per record at create (a 16-byte average arena budget and
	// a 12-byte seek anchor every 16 records), so at most 1 << 20
	// (≈ 17 MB); records averaging over the budget — none the hierarchy
	// writes on the daemon's tenant shapes — would double the arena, to
	// 128 bytes per record at worst. Part of the configuration, so
	// snapshots persist it; the ring itself is ephemeral — a restore
	// re-fills it by replaying the observation log.
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

	// observations is the event-sourcing log: the exact count stream fed
	// so far. Snapshots persist it; restores replay it (runs are
	// deterministic per seed, so replay reconstructs the exact state).
	// Known limitation: the log grows one float per bin for the tenant's
	// lifetime — the only state of a tenant that does (pinned by
	// TestTenantFootprintFlatInUptime) — so snapshot size and restore
	// replay time grow with uptime; very long-lived tenants will want
	// periodic compaction (close + recreate, or a future checkpoint
	// format).
	observations obsLog

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

// newTenant builds a tenant's manager and session. The learned artifacts
// come through the fleet's store — shared with every tenant of the same
// fingerprint, learned only when the store does not hold them — except
// those a snapshot log supplies in logged (nil on create), which are used
// as logged. On error no store reference is left behind; the owner of a
// built tenant releases them (mgr.Release) when it discards the tenant.
func newTenant(id string, tc TenantConfig, artifacts *core.ArtifactStore, logged *core.ArtifactSet) (_ *tenant, err error) {
	if err := CheckTelemetryRecords(tc.TelemetryRecords); err != nil {
		return nil, fmt.Errorf("fleet: tenant %s: %w", id, err)
	}
	mgr, err := artifacts.NewManager(tc.Spec, tc.Core, logged)
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
		return fmt.Errorf("fleet: tenant %s bin %d: %w", t.id, t.observations.len(), err)
	}
	if err := t.sess.StepBin(count); err != nil {
		return err
	}
	t.observations.add(count)
	return nil
}

// state reports the tenant's progress. Runs on the home shard. The last
// decision is the session's — refreshed only by a bin that stepped cleanly,
// so a tenant quarantined mid-stream reports its last good one and a
// tenant with no bin applied reports none.
func (t *tenant) state() TenantState {
	bins, steps, simTime := t.sess.Progress()
	st := TenantState{
		ID:          t.id,
		Computers:   t.cfg.Spec.Computers(),
		Bins:        bins,
		Steps:       steps,
		SimTime:     simTime,
		Quarantined: t.quarantined.Load(),
	}
	if t.observations.len() > 0 {
		dec := t.sess.Decision()
		st.LastDecision = &dec
	}
	return st
}

// obsChunk is the observation log's growth unit: 512 counts, one 4 KB
// allocation.
const obsChunk = 512

// obsLog is an append-only log of observation counts held in fixed-size
// chunks: an entry costs its own 8 bytes and the log never re-copies its
// history to grow, where one appended slice paid ~27 B per entry in
// copy-on-grow garbage. The zero value is an empty log.
type obsLog struct {
	chunks []*[obsChunk]float64
	n      int
}

func (l *obsLog) len() int { return l.n }

func (l *obsLog) add(count float64) {
	if l.n%obsChunk == 0 {
		l.chunks = append(l.chunks, new([obsChunk]float64))
	}
	l.chunks[l.n/obsChunk][l.n%obsChunk] = count
	l.n++
}

// tail returns a fresh copy of the entries from index from on (nil when
// there are none).
func (l *obsLog) tail(from int) []float64 {
	if from >= l.n {
		return nil
	}
	out := make([]float64, 0, l.n-from)
	for at := from; at < l.n; at = (at/obsChunk + 1) * obsChunk {
		end := min(l.n-at/obsChunk*obsChunk, obsChunk)
		out = append(out, l.chunks[at/obsChunk][at%obsChunk:end]...)
	}
	return out
}
