// Package fleet is the online control plane: it hosts many independent
// tenant clusters — each a full core.Manager hierarchy with its own
// plant, forecasters, and learned GMap/J̃ state — inside one process,
// sharded across worker goroutines. Tenants are advanced by streamed
// arrival observations (core.Session.ObserveBin) instead of batch trace
// replays, which is what a long-running controller daemon needs.
//
// Concurrency model: every tenant has a home shard, and all operations on
// a tenant execute serially on that shard's goroutine — per-tenant
// ordering is total, distinct tenants step concurrently, and the tenant
// state needs no locks. Every shard call completes one way: the caller
// sends its jobs down the shard queues and waits on one completion, which
// the last job to finish signals. Whole-fleet reads never hop once per
// tenant: States, Snapshot and a journal append are one sweep — one job
// per shard that visits the shard's tenants in bounded slices. The one
// piece of shard state read under a mutex is the shard's telemetry fold,
// which the shards keep as the bins step: TelemetrySummary reads it
// without joining any queue, so a scrape never waits behind ingest. The
// shard loops run under the context-aware fan-out in internal/par, so
// closing the fleet stops them promptly.
//
// Invariants:
//
//   - Online equals batch: a tenant stepped over a trace's bins is
//     record-for-record identical to core's batch Manager.Run on that
//     trace (pinned by TestFleetOnlineMatchesBatchRun).
//   - Snapshots are checkpoints (config + the tenant's state); a restore
//     creates the tenant from its configuration, as CreateTenant does,
//     and puts the checkpointed state back, so the next K
//     decisions, telemetry cursors and close record after a restore are
//     those of an uninterrupted run (pinned by the checkpoint property
//     tests). Scenario failure plans ride in TenantConfig, so restores
//     re-inject them.
//   - Learn once, share everywhere: the fleet holds one artifact store, so
//     an abstraction map g or tree J̃ is learned once and kept in memory
//     once per learning fingerprint however many tenants use it — a
//     restore included — and no snapshot log stores it; shared artifacts
//     are read-only (pinned by the sharing tests).
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hierctl/internal/ckpt"
	"hierctl/internal/core"
	"hierctl/internal/obs"
	"hierctl/internal/par"
)

// Config parameterizes a fleet.
type Config struct {
	// Shards is the number of worker goroutines tenants are distributed
	// over (round-robin at creation). 0 = one shard per available CPU.
	Shards int
	// QueueDepth bounds each shard's ingest queue — the number of pending
	// jobs a shard accepts before ObserveBatch starts rejecting entries
	// with ErrQueueFull. 0 = DefaultQueueDepth.
	QueueDepth int
	// ObserveFailpoint, when non-nil, runs on the tenant's home shard
	// immediately before every observation bin is applied — the fault
	// injection seam the quarantine tests use to panic a chosen tenant at
	// a chosen bin. Process-local only: Config is never serialized, so
	// snapshots and journals carry no trace of it.
	ObserveFailpoint func(id string, count float64)
}

// DefaultQueueDepth is the per-shard ingest-queue bound when
// Config.QueueDepth is zero.
const DefaultQueueDepth = 1024

var (
	// ErrClosed is returned by every operation after Close.
	ErrClosed = errors.New("fleet: closed")
	// ErrNotFound is returned for operations on unknown tenant ids.
	ErrNotFound = errors.New("fleet: tenant not found")
	// ErrExists is returned when creating a tenant under a taken id.
	ErrExists = errors.New("fleet: tenant already exists")
	// ErrQueueFull is returned per-entry by ObserveBatch when the target
	// tenant's home-shard ingest queue is at QueueDepth. The entry was not
	// applied; callers should back off and retry.
	ErrQueueFull = errors.New("fleet: shard ingest queue full")
	// ErrTenantQuarantined is returned for stepping operations on a tenant
	// whose controller stack panicked. The panic is recovered on the home
	// shard (siblings keep running); a tenant that panicked before its bin
	// began is checkpointed at its last clean bin, so snapshots and
	// journal frames stay consistent. Reads (State, Telemetry) still work,
	// and CloseTenant removes the tenant without attempting a drain.
	ErrTenantQuarantined = errors.New("fleet: tenant quarantined after panic")
)

// Fleet is a sharded multi-tenant controller host. Construct with New;
// all methods are safe for concurrent use.
type Fleet struct {
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	shards []*shard

	mu        sync.RWMutex
	tenants   map[string]*tenant
	nextShard int
	nextGen   uint64 // registration generations; see tenant.gen

	// artifacts shares the offline learning results across the fleet's
	// tenants; every tenant construction (create and restore) goes through
	// it and every removal releases into it.
	artifacts *core.ArtifactStore

	observations atomic.Int64
	ticks        atomic.Int64
	decideNanos  atomic.Int64
	snapshots    atomic.Int64
	restores     atomic.Int64
	queueRejects atomic.Int64
	panics       atomic.Int64
	// quarantined counts the registered tenants under quarantine: up at the
	// latch (or when a quarantined tenant is restored), down at close.
	quarantined atomic.Int64

	failpoint func(id string, count float64)

	// batchCalls pools the per-call state (*batchCall) of ObserveBatchInto
	// and Observe.
	batchCalls sync.Pool
}

// job is one unit of work on a shard queue. A bin reaches its shard one
// way, as a pooled batch cell that is its own job (Observe's is a batch of
// one); a sweep's turn is a sweepJob; the single-tenant reads and
// CloseTenant ride as funcJobs.
type job interface{ run() }

type funcJob func()

func (fn funcJob) run() { fn() }

// completion is how a shard call learns its jobs are done: pending counts
// the jobs still to finish (plus any hold the caller keeps while it
// enqueues), and whoever drops it to zero puts the call's one token in
// done. A call takes the token before its completion is armed again.
type completion struct {
	pending atomic.Int64
	done    chan struct{} // capacity 1
}

// arm readies c for n finishes.
func (c *completion) arm(n int) {
	if c.done == nil {
		c.done = make(chan struct{}, 1)
	}
	c.pending.Store(int64(n))
}

// finish marks one job (or the caller's hold) done.
func (c *completion) finish() {
	if c.pending.Add(-1) == 0 {
		c.done <- struct{}{}
	}
}

// send puts j on s's queue, waiting for room, or returns ErrClosed if the
// fleet closes first.
func (f *Fleet) send(s *shard, j job) error {
	select {
	case s.jobs <- j:
		return nil
	case <-f.ctx.Done():
		return ErrClosed
	}
}

// wait takes c's token, or returns ErrClosed if the fleet closes first.
// Both may be ready at once; the token wins, so work that did finish (and
// may have mutated tenant state) is never reported as closed. A call that
// got ErrClosed must not reuse what its jobs write: a job abandoned by the
// shutdown may still be running.
func (f *Fleet) wait(c *completion) error {
	select {
	case <-c.done:
		return nil
	case <-f.ctx.Done():
		select {
		case <-c.done:
			return nil
		default:
			return ErrClosed
		}
	}
}

// shard executes the jobs of its assigned tenants serially.
type shard struct {
	jobs chan job
	// The shard's share of the fleet-wide telemetry fold, kept current as
	// its tenants step (see fold): the cumulative totals and the rankings
	// of its registered tenants. Only the shard goroutine writes them, under
	// mu; TelemetrySummary reads them under mu from any goroutine.
	mu  sync.Mutex
	agg TelemetryTotals
	top TelemetryRankings
	// foldBuf is the scratch a tenant's new records are decoded into.
	foldBuf []obs.Record
	// ckpt is the scratch a capture on this shard encodes a tenant's
	// checkpoint into before keeping an exact-size copy.
	ckpt ckpt.Writer
	// operational sums the shard's registered tenants' operational
	// computers as of their last decisions. Atomic because a restored
	// tenant brings its count in at admission, off the shard.
	operational atomic.Int64
}

func (s *shard) run(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case j := <-s.jobs:
			j.run()
		}
	}
}

// New starts a fleet with the configured number of shards.
func New(cfg Config) *Fleet {
	n := par.Workers(cfg.Shards)
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	f := &Fleet{
		tenants:   map[string]*tenant{},
		shards:    make([]*shard, n),
		done:      make(chan struct{}),
		artifacts: core.NewArtifactStore(),
		failpoint: cfg.ObserveFailpoint,
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	for i := range f.shards {
		f.shards[i] = &shard{jobs: make(chan job, depth)}
	}
	go func() { // single long-lived supervisor; the fan-out inside is the bounded par pool
		defer close(f.done)
		// One long-running task per shard; the context-aware fan-out
		// stops scheduling (and the loops return) on cancellation.
		_ = par.ForCtx(f.ctx, n, n, func(i int) error {
			f.shards[i].run(f.ctx)
			return nil
		})
	}()
	return f
}

// Close shuts the fleet down: shard loops stop promptly and every
// subsequent operation returns ErrClosed. Tenants are not finished —
// snapshot first if their state should survive.
func (f *Fleet) Close() {
	f.cancel()
	<-f.done
}

// exec runs fn on t's home shard and waits for it, bailing out with
// ErrClosed if the fleet shuts down first.
func (f *Fleet) exec(t *tenant, fn func()) error {
	c := new(completion)
	c.arm(1)
	if err := f.send(t.home, funcJob(func() { defer c.finish(); fn() })); err != nil {
		return err
	}
	return f.wait(c)
}

// stepTenant applies one observation bin to t with panic containment.
// Runs on t's home shard. A panic anywhere in the tenant's controller
// stack is recovered here — before the frame unwinds into the shard
// loop, so sibling tenants (including same-shard ones) are unaffected —
// and the tenant is quarantined: this bin and every later stepping
// operation return ErrTenantQuarantined. Its bin count and log gain an
// entry only after a bin applies cleanly, so a tenant that panicked before
// its bin began checkpoints to exactly the pre-fault state; one that
// stopped inside the bin — by a panic or an error — is halted (see
// haltState) and quarantined with it. A clean bin's
// flight-recorder records are folded into the shard's telemetry aggregate
// before anything else can overwrite them. A step that reaches the shard
// behind the tenant's close job finds the tenant gone.
func (f *Fleet) stepTenant(t *tenant, count float64) (err error) {
	if t.closed {
		return ErrNotFound
	}
	if t.quarantined.Load() {
		return ErrTenantQuarantined
	}
	defer func() {
		if v := recover(); v != nil {
			err = f.quarantine(t, v)
		}
	}()
	if f.failpoint != nil {
		f.failpoint(t.id, count)
	}
	if err := t.step(count); err != nil {
		if t.sess.Halted() {
			return f.latch(t, err)
		}
		return err
	}
	t.home.fold(t)
	return nil
}

// quarantine latches t's quarantine after a recovered panic v and returns
// the error the interrupted operation reports. Runs on t's home shard, on
// a tenant that is still registered.
func (f *Fleet) quarantine(t *tenant, v any) error {
	f.panics.Add(1)
	return f.latch(t, v)
}

// latch quarantines t for cause, freezing what it reports if its session
// stopped mid-bin, and returns the error the interrupted operation
// reports. Runs on t's home shard.
func (f *Fleet) latch(t *tenant, cause any) error {
	if t.sess.Halted() {
		t.freeze()
	}
	t.quarantined.Store(true)
	f.quarantined.Add(1)
	return fmt.Errorf("%w: %v", ErrTenantQuarantined, cause)
}

func (f *Fleet) tenant(id string) (*tenant, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	t, ok := f.tenants[id]
	if !ok {
		return nil, ErrNotFound
	}
	return t, nil
}

// register adds a built tenant to the map and assigns its home shard.
func (f *Fleet) register(t *tenant) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.tenants[t.id]; ok {
		return ErrExists
	}
	f.admit(t)
	return nil
}

// admit assigns t its home shard and generation and registers it; the
// caller holds f.mu and has checked the id is free.
func (f *Fleet) admit(t *tenant) {
	t.home = f.shards[f.nextShard%len(f.shards)]
	f.nextShard++
	f.nextGen++
	t.gen = f.nextGen
	t.home.operational.Add(int64(t.operational)) // non-zero only when restored
	f.tenants[t.id] = t
	if t.quarantined.Load() { // restored under quarantine
		f.quarantined.Add(1)
	}
}

// CreateTenant builds a tenant's hierarchy and registers it. The offline
// learning runs only for artifacts the fleet does not hold yet: the first
// tenant of a learning fingerprint learns, concurrent creators of the same
// fingerprint wait for it, and everyone after shares the result. The id
// must be unique and non-empty.
func (f *Fleet) CreateTenant(id string, tc TenantConfig) error {
	if err := f.ctx.Err(); err != nil {
		return ErrClosed
	}
	if id == "" {
		return fmt.Errorf("fleet: empty tenant id")
	}
	f.mu.RLock()
	_, taken := f.tenants[id]
	f.mu.RUnlock()
	if taken {
		return ErrExists
	}
	t, err := newTenant(id, tc, f.artifacts)
	if err != nil {
		return err
	}
	if err := f.register(t); err != nil {
		t.mgr.Release()
		return err
	}
	return nil
}

// Observe feeds one arrival-count bin to the tenant and returns the
// frequency/provisioning decisions now in force: ObserveInto a fresh
// decision, which owns its slices.
func (f *Fleet) Observe(id string, count float64) (core.BinDecision, error) {
	var dec core.BinDecision
	if err := f.ObserveInto(id, count, &dec); err != nil {
		return core.BinDecision{}, err
	}
	return dec, nil
}

// ObserveInto feeds one arrival-count bin to the tenant and copies the
// decisions now in force into dst (Session.DecisionInto: a dst an earlier
// call filled for a tenant at least as wide costs no allocation). It is a
// one-entry batch: the bin reaches the home shard as the same pooled cell
// an ObserveBatch entry does and is stepped, timed, counted and copied out
// in the same place (batchOut.run). The one difference is the enqueue,
// which waits for room on the shard's queue where ObserveBatch rejects
// with ErrQueueFull. Calls for the same tenant serialize on its home
// shard; calls for different tenants run concurrently.
//
// An error leaves dst as it was, with one exception: after ErrClosed dst
// must not be read or reused, as a job abandoned by the shutdown may still
// be writing it.
func (f *Fleet) ObserveInto(id string, count float64, dst *core.BinDecision) error {
	t, err := f.tenant(id)
	if err != nil {
		return err
	}
	call := f.takeCall(1, true)
	cell := &call.cells[0]
	call.one[0] = count
	cell.call, cell.t, cell.counts, cell.dec = call, t, call.one[:], dst
	call.arm(1)
	if err := f.send(t.home, cell); err != nil {
		return err
	}
	if err := f.wait(&call.completion); err != nil {
		// The job the shutdown abandoned may still write its cell, so the
		// call is left to the collector.
		return err
	}
	err = cell.err
	f.putCall(call)
	return err
}

// State reports a tenant's progress and last decision.
func (f *Fleet) State(id string) (TenantState, error) {
	t, err := f.tenant(id)
	if err != nil {
		return TenantState{}, err
	}
	var st TenantState
	if err := f.exec(t, func() { st = t.state() }); err != nil {
		return TenantState{}, err
	}
	return st, nil
}

// Telemetry returns up to max of the tenant's most recent flight-recorder
// records (oldest first) plus the cursor one past the newest record — the
// value to hand TelemetrySince to resume from here. max <= 0 means the whole
// retained window. Tenants configured with TelemetryRecords == 0
// return an empty window and cursor 0. The ring read executes on the
// tenant's home shard, so it never races the tenant's own writers.
func (f *Fleet) Telemetry(id string, max int) ([]obs.Record, uint64, error) {
	t, err := f.tenant(id)
	if err != nil {
		return nil, 0, err
	}
	var recs []obs.Record
	var cursor uint64
	if err := f.exec(t, func() {
		rec := t.mgr.Recorder()
		recs = rec.Window(nil, max)
		cursor = rec.Total()
	}); err != nil {
		return nil, 0, err
	}
	return recs, cursor, nil
}

// TelemetrySince returns the tenant's flight-recorder records written at
// or after cursor (oldest first) and the next cursor. Records the ring
// overwrote between cursor and the oldest it still retains are skipped,
// not waited for: the recorder is a bounded window, not a durable log, so
// pollers lose records rather than block — a reply shorter than
// next − cursor is how they know.
func (f *Fleet) TelemetrySince(id string, cursor uint64) ([]obs.Record, uint64, error) {
	t, err := f.tenant(id)
	if err != nil {
		return nil, 0, err
	}
	var recs []obs.Record
	var next uint64
	if err := f.exec(t, func() {
		recs, next = t.mgr.Recorder().Since(nil, cursor)
	}); err != nil {
		return nil, 0, err
	}
	return recs, next, nil
}

// CloseTenant finishes the tenant's session (draining in-flight work),
// removes it from the fleet, and returns its full run record. A
// quarantined tenant is removed without a drain — its post-panic session
// state cannot be trusted to finish — and the call returns
// ErrTenantQuarantined with a nil record; a panic during the drain
// itself quarantines the same way, with the tenant still removed.
func (f *Fleet) CloseTenant(id string) (*core.Record, error) {
	t, err := f.tenant(id)
	if err != nil {
		return nil, err
	}
	var rec *core.Record
	var ferr error
	if err := f.exec(t, func() {
		if t.closed { // a concurrent close of this incarnation got here first
			ferr = ErrNotFound
			return
		}
		t.closed = true
		// Released on the home shard; the store drops what this tenant
		// held last. Before that the shard folds what the recorder gained
		// since the last clean bin — the drain's ticks, a faulted bin's
		// partial output — so the fleet totals keep all of it.
		defer t.mgr.Release()
		defer func() {
			t.home.fold(t)
			t.home.forget(f, t)
		}()
		if t.quarantined.Load() {
			ferr = ErrTenantQuarantined
			return
		}
		defer func() {
			if v := recover(); v != nil {
				rec = nil
				ferr = f.quarantine(t, v)
			}
		}()
		rec, ferr = t.sess.Finish()
	}); err != nil {
		return nil, err
	}
	if errors.Is(ferr, ErrNotFound) {
		return nil, ferr
	}
	f.mu.Lock()
	delete(f.tenants, id)
	f.mu.Unlock()
	if t.quarantined.Load() {
		f.quarantined.Add(-1)
	}
	if ferr != nil {
		return nil, ferr
	}
	return rec, nil
}

// States reports every tenant's state, sorted by tenant id: one sweep, so
// a caller waits for at most the busiest shard's queue rather than the sum
// of every tenant's. Tenants removed mid-listing are skipped.
func (f *Fleet) States() []TenantState {
	states, err := sweep(f, func(t *tenant) (TenantState, error) { return t.state(), nil })
	if err != nil {
		return nil
	}
	return states
}

// Tenants returns the registered tenant ids in sorted order.
func (f *Fleet) Tenants() []string {
	f.mu.RLock()
	ids := make([]string, 0, len(f.tenants))
	for id := range f.tenants {
		ids = append(ids, id)
	}
	f.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// Stats summarizes fleet-level counters for the metrics endpoint.
type Stats struct {
	Tenants       int
	Shards        int
	Observations  int64   // bins ingested across all tenants
	Ticks         int64   // T_L0 control periods stepped
	DecideSeconds float64 // wall-clock spent inside tenant stepping
	Snapshots     int64
	Restores      int64
	QueueRejects  int64 // batch entries refused with ErrQueueFull
	Panics        int64 // tenant panics recovered over the fleet's life
	Quarantined   int   // currently registered tenants under quarantine
	// Artifacts reports the fleet's shared learning artifacts: how many it
	// holds, how many it learned, and how many tenant constructions were
	// served one it already held.
	Artifacts core.ArtifactStats
}

// Stats returns a snapshot of the fleet counters.
func (f *Fleet) Stats() Stats {
	f.mu.RLock()
	n := len(f.tenants)
	f.mu.RUnlock()
	return Stats{
		Tenants:       n,
		Shards:        len(f.shards),
		Observations:  f.observations.Load(),
		Ticks:         f.ticks.Load(),
		DecideSeconds: float64(f.decideNanos.Load()) / 1e9,
		Snapshots:     f.snapshots.Load(),
		Restores:      f.restores.Load(),
		QueueRejects:  f.queueRejects.Load(),
		Panics:        f.panics.Load(),
		Quarantined:   int(f.quarantined.Load()),
		Artifacts:     f.artifacts.Stats(),
	}
}
