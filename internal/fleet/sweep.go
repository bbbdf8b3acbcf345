package fleet

import "sort"

// sweepSlice bounds how many listed tenants a sweep job looks at per turn
// on its shard: a sweep of any fleet holds a shard for at most this many
// tenants before the ingest queued behind it runs.
const sweepSlice = 64

// sweepCall is one sweep's state: the tenant listing, the per-shard jobs
// and the completion they share.
type sweepCall struct {
	completion
	all   []*tenant
	visit func(pos int, t *tenant)
	jobs  []sweepJob
}

// sweepJob is one shard's share of a sweep: how far down the listing it
// has looked. It is its own queue entry, so a turn costs no closure and
// re-enqueueing none either.
type sweepJob struct {
	call *sweepCall
	home *shard
	next int
}

// run looks at the next sweepSlice listed tenants, visiting those that
// live on this shard, then goes back to the end of the shard's queue so
// ingest queued meanwhile interleaves. A shard cannot wait on its own
// queue, so when that is full the job keeps its turn instead.
func (j *sweepJob) run() {
	c := j.call
	for {
		stop := min(j.next+sweepSlice, len(c.all))
		for ; j.next < stop; j.next++ {
			if t := c.all[j.next]; t.home == j.home && !t.closed {
				c.visit(j.next, t)
			}
		}
		if j.next == len(c.all) {
			break
		}
		select {
		case j.home.jobs <- j:
			return
		default:
		}
	}
	c.finish()
}

// sweep is the fleet's one way to read every tenant: it lists the
// registered tenants in id order and runs one job per shard that calls
// visit for each listed tenant on its home shard — serialized against that
// tenant's observations like any shard job — and returns the results in
// that order; the first error in it fails the sweep. A tenant whose close
// job ran since the listing is skipped; one created since is not listed.
// Results following id order is what keeps snapshot and journal bytes a
// function of fleet state alone.
//
// visit runs concurrently across shards. Every job scans the whole
// listing for its shard's tenants, so a sweep costs each shard one pass
// over n pointers plus its visits, whatever the shard count.
func sweep[T any](f *Fleet, visit func(t *tenant) (T, error)) ([]T, error) {
	if f.ctx.Err() != nil {
		return nil, ErrClosed
	}
	c := &sweepCall{jobs: make([]sweepJob, len(f.shards))}
	f.mu.RLock()
	c.all = make([]*tenant, 0, len(f.tenants))
	for _, t := range f.tenants {
		c.all = append(c.all, t)
	}
	f.mu.RUnlock()
	sort.Slice(c.all, func(i, j int) bool { return c.all[i].id < c.all[j].id })
	// Each position is written by the one shard that visits it.
	vals, errs, visited := make([]T, len(c.all)), make([]error, len(c.all)), make([]bool, len(c.all))
	c.visit = func(pos int, t *tenant) {
		vals[pos], errs[pos] = visit(t)
		visited[pos] = true
	}
	c.arm(len(c.jobs))
	for i, s := range f.shards {
		c.jobs[i] = sweepJob{call: c, home: s}
		if err := f.send(s, &c.jobs[i]); err != nil {
			return nil, err
		}
	}
	if err := f.wait(&c.completion); err != nil {
		return nil, err
	}
	kept := vals[:0]
	for i := range vals {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if visited[i] {
			kept = append(kept, vals[i])
		}
	}
	return kept, nil
}
