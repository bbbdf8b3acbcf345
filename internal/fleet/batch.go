package fleet

import (
	"sync/atomic"
	"time"

	"hierctl/internal/core"
)

// BatchEntry is one tenant's slice of a batched ingest call: Counts are
// consecutive observation bins, applied in order.
type BatchEntry struct {
	Tenant string
	Counts []float64
}

// BatchResult reports one entry's outcome, index-aligned with the entries
// passed to ObserveBatch.
type BatchResult struct {
	Tenant string
	// Applied is the number of bins stepped (may be short of len(Counts)
	// when a bin errored mid-entry; bins before the error stay applied).
	Applied int
	// LastDecision is the decision in force after the entry's final
	// applied bin (nil when nothing was applied).
	LastDecision *core.BinDecision
	// Err is nil on full application; ErrNotFound, ErrQueueFull,
	// ErrClosed, or the session error that stopped the entry otherwise.
	Err error
}

// batchOut is the shard-side result cell of one entry's job, carved from
// one slice per call. The job owns it until it sets finished; the caller
// reads it only after loading finished true, so a job abandoned by fleet
// shutdown can still write it harmlessly.
type batchOut struct {
	enqueued bool // caller-side only: the entry's job reached its shard
	finished atomic.Bool
	applied  int
	last     *core.BinDecision
	err      error
}

// batchCall is one ObserveBatch call's completion counter: pending counts
// the enqueued jobs still running plus one hold the caller keeps while it
// is enqueueing; whoever drops it to zero closes done.
type batchCall struct {
	pending atomic.Int64
	done    chan struct{}
}

func (c *batchCall) release() {
	if c.pending.Add(-1) == 0 {
		close(c.done)
	}
}

// ObserveBatch feeds many observation bins across many tenants in one
// call. Entries fan out to their tenants' home shards as one job per
// entry; a tenant's bins are applied in entry order (shard queues are
// FIFO), so per-tenant ordering is deterministic and the resulting
// records are bit-identical to delivering the same counts one-by-one via
// Observe — the batch≡sequential invariant pinned by
// TestObserveBatchEquivalence. Distinct tenants step concurrently.
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
// per-entry failures ride in the results.
func (f *Fleet) ObserveBatch(entries []BatchEntry) ([]BatchResult, error) {
	if err := f.ctx.Err(); err != nil {
		return nil, ErrClosed
	}
	results := make([]BatchResult, len(entries))
	outs := make([]batchOut, len(entries))
	call := &batchCall{done: make(chan struct{})}
	call.pending.Store(1)
	var blocked map[string]bool
	for i := range entries {
		e := &entries[i]
		results[i].Tenant = e.Tenant
		t, err := f.tenant(e.Tenant)
		if err != nil {
			// Unknown tenants fail even with no bins to apply, matching
			// Observe — an empty entry is a validated no-op, not a skip.
			results[i].Err = err
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
		out := &outs[i]
		counts := e.Counts
		job := func() {
			defer call.release()
			defer out.finished.Store(true)
			start := time.Now()
			for _, c := range counts {
				if err := f.stepTenant(t, c); err != nil {
					out.err = err
					break
				}
				out.applied++
			}
			if out.applied > 0 {
				// One decision per entry, built where it escapes the
				// shard: the one in force after the last applied bin.
				dec := t.decide()
				out.last = &dec
			}
			f.observations.Add(int64(out.applied))
			f.ticks.Add(int64(out.applied * t.sub))
			f.decideNanos.Add(time.Since(start).Nanoseconds())
		}
		call.pending.Add(1)
		select {
		case t.home.jobs <- job:
			out.enqueued = true
		default:
			call.pending.Add(-1) // cannot reach zero: the caller's hold is still in
			results[i].Err = ErrQueueFull
			f.queueRejects.Add(1)
			if blocked == nil {
				blocked = map[string]bool{}
			}
			blocked[e.Tenant] = true
		}
	}
	call.release()
	select {
	case <-call.done:
	case <-f.ctx.Done():
	}
	for i := range outs {
		out := &outs[i]
		if !out.enqueued {
			continue
		}
		if !out.finished.Load() {
			// The fleet closed under the call. The job is either still
			// queued (it will never run — the shard loops exited) or
			// mid-flight on a shard that outlives the cancellation;
			// either way its cell cannot be read safely, so the entry
			// reports ErrClosed. A job that did finish is never reported
			// as closed.
			results[i].Err = ErrClosed
			continue
		}
		results[i].Applied = out.applied
		results[i].LastDecision = out.last
		results[i].Err = out.err
	}
	return results, nil
}

// QueueDepths reports each shard's pending ingest-queue length — the
// live backlog behind the ObserveBatch backpressure boundary, exported
// per shard on /metrics.
func (f *Fleet) QueueDepths() []int {
	depths := make([]int, len(f.shards))
	for i, s := range f.shards {
		depths[i] = len(s.jobs)
	}
	return depths
}
