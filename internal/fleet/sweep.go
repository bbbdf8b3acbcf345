package fleet

import (
	"slices"
	"strings"
)

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

// sweepScratch is the memory a sweep writes: its call, with the listing
// and the per-shard jobs, and one result, error and visited flag per listed
// tenant. A caller that sweeps on a schedule keeps one and hands it to
// every sweep, which then allocates nothing once the slots have grown to
// the fleet; the results a sweep returns are a view of it, valid until
// its next sweep. After a sweep that failed with ErrClosed a shard may
// still be writing it, but a closed fleet sweeps no more.
type sweepScratch[T any] struct {
	call    sweepCall
	visitFn func(t *tenant) (T, error)
	vals    []T
	errs    []error
	visited []bool
}

// at visits the listed tenant at pos. Each position is written by the one
// shard that visits it.
func (s *sweepScratch[T]) at(pos int, t *tenant) {
	s.vals[pos], s.errs[pos] = s.visitFn(t)
	s.visited[pos] = true
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
	return sweepInto(f, new(sweepScratch[T]), visit)
}

// sweepInto is sweep writing into s.
func sweepInto[T any](f *Fleet, s *sweepScratch[T], visit func(t *tenant) (T, error)) ([]T, error) {
	if f.ctx.Err() != nil {
		return nil, ErrClosed
	}
	c := &s.call
	if len(c.jobs) != len(f.shards) {
		c.jobs = make([]sweepJob, len(f.shards))
	}
	if c.visit == nil {
		c.visit = s.at
	}
	s.visitFn = visit
	f.mu.RLock()
	c.all = c.all[:0]
	for _, t := range f.tenants {
		c.all = append(c.all, t)
	}
	f.mu.RUnlock()
	slices.SortFunc(c.all, func(a, b *tenant) int { return strings.Compare(a.id, b.id) })
	n := len(c.all)
	s.vals, s.errs, s.visited = resize(s.vals, n), resize(s.errs, n), resize(s.visited, n)
	c.arm(len(c.jobs))
	for i, sh := range f.shards {
		c.jobs[i] = sweepJob{call: c, home: sh}
		if err := f.send(sh, &c.jobs[i]); err != nil {
			return nil, err
		}
	}
	if err := f.wait(&c.completion); err != nil {
		return nil, err
	}
	// The listing goes, so a tenant closed since is not kept alive by it.
	clear(c.all)
	kept := s.vals[:0]
	for i := range s.vals {
		if s.errs[i] != nil {
			return nil, s.errs[i]
		}
		if s.visited[i] {
			kept = append(kept, s.vals[i])
		}
	}
	clear(s.vals[len(kept):])
	return kept, nil
}

// resize returns a zeroed slice of n elements, on s's array when it is
// large enough.
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	s = s[:n]
	clear(s)
	return s
}
