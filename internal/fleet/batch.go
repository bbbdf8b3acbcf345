package fleet

import (
	"slices"
	"sync/atomic"
	"time"

	"hierctl/internal/core"
)

// BatchEntry is one tenant's slice of a batched ingest call: Counts are
// consecutive observation bins, applied in order. The tags are the
// /v1/observe:batch wire shape, so the daemon decodes requests straight
// into the entries it hands to ObserveBatchInto.
type BatchEntry struct {
	Tenant string    `json:"tenant"`
	Counts []float64 `json:"counts"`
}

// BatchResult reports one entry's outcome, index-aligned with the entries
// passed to ObserveBatch.
type BatchResult struct {
	Tenant string
	// Applied is the number of bins stepped (may be short of len(Counts)
	// when a bin errored mid-entry; bins before the error stay applied).
	Applied int
	// LastDecision is the decision in force after the entry's final
	// applied bin (nil when nothing was applied, or when the call did not
	// ask for decisions).
	LastDecision *core.BinDecision
	// Err is nil on full application; ErrNotFound, ErrQueueFull,
	// ErrClosed, or the session error that stopped the entry otherwise.
	Err error
}

// batchOut is one entry's cell in a batch call, and the job its home shard
// runs — the only place a bin is stepped, timed and counted: the caller
// fills t and counts (and dec, for ObserveInto) and sends the cell itself
// down the shard queue, so an entry costs no closure. The job owns
// applied, dec and err until it sets finished; the caller reads them only
// after loading finished true, so a job abandoned by fleet shutdown can
// still write its cell harmlessly — which is also why the cells of a call
// that saw the fleet close, and the decision one was filling, are never
// reused.
type batchOut struct {
	call   *batchCall
	t      *tenant // nil: the entry's id did not resolve
	counts []float64

	enqueued bool // caller-side only: the entry's job reached its shard
	finished atomic.Bool
	applied  int
	// dec is where the decision goes in a call that asked for one: the
	// caller's destination in ObserveInto; in a batch, nil until the job
	// allocates the entry's own.
	dec *core.BinDecision
	err error
}

// batchCall is one ObserveBatchInto or ObserveInto call's state, pooled per
// fleet: the entries' cells and the completion, which counts the enqueued
// jobs plus, in a batch, one hold the caller keeps while it is enqueueing.
type batchCall struct {
	completion
	f         *Fleet
	decisions bool
	cells     []batchOut
	one       [1]float64 // ObserveInto's bin: the counts of its one cell
}

// takeCall returns a pooled call with n zeroed cells.
func (f *Fleet) takeCall(n int, decisions bool) *batchCall {
	call, _ := f.batchCalls.Get().(*batchCall)
	if call == nil {
		call = &batchCall{f: f}
	}
	call.decisions = decisions
	if cap(call.cells) < n {
		call.cells = make([]batchOut, n)
	}
	call.cells = call.cells[:n]
	return call
}

// putCall pools a call whose token was taken: every job it enqueued has
// finished. Nothing a pooled cell holds may pin a closed tenant, the
// caller's counts or a returned decision.
func (f *Fleet) putCall(call *batchCall) {
	clear(call.cells)
	f.batchCalls.Put(call)
}

// run steps the entry's bins on its tenant's home shard. The decision is
// copied here, where it leaves the shard, and only for a call that asked.
//
//hpm:hotpath
func (o *batchOut) run() {
	c, t := o.call, o.t
	f := c.f
	start := time.Now()
	for _, count := range o.counts {
		if err := f.stepTenant(t, count); err != nil {
			o.err = err
			break
		}
		o.applied++
	}
	if c.decisions && o.applied > 0 {
		if o.dec == nil {
			o.dec = new(core.BinDecision) //hpm:alloc a batch entry's decision leaves the shard in the reply
		}
		t.sess.DecisionInto(o.dec)
	}
	f.observations.Add(int64(o.applied))
	f.ticks.Add(int64(o.applied * t.sub))
	f.decideNanos.Add(time.Since(start).Nanoseconds())
	o.finished.Store(true)
	c.finish()
}

// ObserveBatch is ObserveBatchInto into a fresh slice with every entry's
// decision built — the allocating form for callers that read them.
func (f *Fleet) ObserveBatch(entries []BatchEntry) ([]BatchResult, error) {
	return f.ObserveBatchInto(nil, entries, true)
}

// ObserveBatchInto feeds many observation bins across many tenants in one
// call, appending one result per entry to dst and returning the extended
// slice. Entries fan out to their tenants' home shards as one job per
// entry; a tenant's bins are applied in entry order (shard queues are
// FIFO), so per-tenant ordering is deterministic and the resulting
// records are bit-identical to delivering the same counts one-by-one via
// Observe — the batch≡sequential invariant pinned by
// TestObserveBatchEquivalence. Distinct tenants step concurrently.
//
// decisions asks for each entry's LastDecision; without it no decision is
// built at all, and a caller that hands the previous call's slice back
// (re-sliced to [:0]) pays a fixed cost per call, not per entry.
//
// Enqueueing is non-blocking: an entry whose home shard's ingest queue is
// full fails with ErrQueueFull, and so do the batch's later entries for
// the same tenant (applying them would reorder that tenant's stream).
// Entries with no Counts are validated no-ops — the tenant id must still
// resolve (ErrNotFound otherwise), but nothing is enqueued and the
// same-tenant blocking above does not apply.
// Other tenants are unaffected — this is the backpressure boundary that
// keeps a slow shard from stalling the network accept path. The call then
// waits for the entries it did enqueue, so results are final on return.
//
// The error return is reserved for whole-call failures (ErrClosed);
// per-entry failures ride in the results. After ErrClosed, whole-call or
// on any entry, the entries' Counts must not be reused: a job abandoned by
// the shutdown may still be reading them.
func (f *Fleet) ObserveBatchInto(dst []BatchResult, entries []BatchEntry, decisions bool) ([]BatchResult, error) {
	if err := f.ctx.Err(); err != nil {
		return nil, ErrClosed
	}
	base := len(dst)
	dst = slices.Grow(dst, len(entries))[:base+len(entries)]
	results := dst[base:]

	call := f.takeCall(len(entries), decisions)
	cells := call.cells
	call.arm(1)

	f.mu.RLock()
	for i := range entries {
		cells[i].t = f.tenants[entries[i].Tenant]
	}
	f.mu.RUnlock()
	call.enqueue(cells, entries, results)
	call.finish()
	closed := f.wait(&call.completion) != nil
	for i := range cells {
		if cells[i].enqueued {
			cells[i].collect(&results[i])
		}
	}
	if closed {
		// The fleet closed under the call: a job that has not finished may
		// still write its cell, so the cells are left to the collector.
		return dst, nil
	}
	f.putCall(call)
	return dst, nil
}

// enqueue validates each entry and sends its cell to its tenant's home
// shard, writing the entries that fail without reaching one into results.
//
//hpm:hotpath
func (c *batchCall) enqueue(cells []batchOut, entries []BatchEntry, results []BatchResult) {
	f := c.f
	var blocked map[string]bool
	for i := range entries {
		e, out := &entries[i], &cells[i]
		results[i] = BatchResult{Tenant: e.Tenant}
		if out.t == nil {
			// Unknown tenants fail even with no bins to apply, matching
			// Observe — an empty entry is a validated no-op, not a skip.
			results[i].Err = ErrNotFound
			continue
		}
		if len(e.Counts) == 0 {
			continue
		}
		if blocked[e.Tenant] {
			results[i].Err = ErrQueueFull
			f.queueRejects.Add(1)
			continue
		}
		out.call, out.counts = c, e.Counts
		c.pending.Add(1)
		select {
		case out.t.home.jobs <- out:
			out.enqueued = true
		default:
			c.pending.Add(-1) // cannot reach zero: the caller's hold is still in
			results[i].Err = ErrQueueFull
			f.queueRejects.Add(1)
			if blocked == nil {
				blocked = map[string]bool{} //hpm:alloc backpressure path only
			}
			blocked[e.Tenant] = true
		}
	}
}

// collect copies a finished job's outcome into its result. A job that has
// not finished means the fleet closed under the call — it is either still
// queued (it will never run: the shard loops exited) or mid-flight on a
// shard that outlives the cancellation — and its cell cannot be read
// safely, so the entry reports ErrClosed. A job that did finish is never
// reported as closed.
func (o *batchOut) collect(res *BatchResult) {
	if !o.finished.Load() {
		res.Err = ErrClosed
		return
	}
	res.Applied, res.LastDecision, res.Err = o.applied, o.dec, o.err
}

// QueueDepthsInto appends each shard's pending ingest-queue length to
// dst[:0] and returns it — the live backlog behind the ObserveBatch
// backpressure boundary, exported per shard on /metrics. A dst with room
// for the shards costs no allocation.
func (f *Fleet) QueueDepthsInto(dst []int) []int {
	dst = dst[:0]
	for _, s := range f.shards {
		dst = append(dst, len(s.jobs))
	}
	return dst
}
