package fleet

import (
	"sync/atomic"

	"hierctl/internal/obs"
)

// The bucket upper bounds of the fleet-wide decision histograms: decide
// latency in nanoseconds (1 µs .. 1 s by decades) and states explored per
// decision. A value above the last bound counts only toward the total, the
// implicit +Inf bucket of a Prometheus histogram.
var (
	decideBoundsNs = [...]int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}
	exploredBounds = [...]int32{1, 10, 100, 1e3, 1e4, 1e5}
)

// TelemetryDecideBounds returns the decide-latency bucket bounds of
// LevelTelemetry.DecideBuckets, in seconds.
func TelemetryDecideBounds() []float64 {
	out := make([]float64, len(decideBoundsNs))
	for i, ns := range decideBoundsNs {
		out[i] = float64(ns) / 1e9
	}
	return out
}

// TelemetryExploredBounds returns the bucket bounds of
// LevelTelemetry.ExploredBuckets.
func TelemetryExploredBounds() []float64 {
	out := make([]float64, len(exploredBounds))
	for i, n := range exploredBounds {
		out[i] = float64(n)
	}
	return out
}

// TelemetryLevels are the hierarchy levels TelemetrySummary.Levels is
// indexed by: the controllers, in obs.Level order.
var TelemetryLevels = [...]obs.Level{obs.LevelL0, obs.LevelL1, obs.LevelL2}

// LevelTelemetry is one hierarchy level's decisions across the fleet,
// cumulative since the fleet started: one sample per decision (an L0
// record, an L1 or L2 summary record). Bucket i counts the samples at or
// under bound i and above bound i-1.
type LevelTelemetry struct {
	Decisions       uint64
	DecideNs        int64 // summed decide latency
	Explored        int64 // summed states explored
	DecideBuckets   [len(decideBoundsNs)]uint64
	ExploredBuckets [len(exploredBounds)]uint64
}

// TopK is how many tenants each worst-tenant ranking of TelemetrySummary
// names: a constant, so a metrics scrape's size does not depend on the
// number of tenants.
const TopK = 8

// TenantCount is one entry of a worst-tenant ranking.
type TenantCount struct {
	ID    string
	Count uint64
}

// TopTenants ranks tenants by a cumulative counter, largest first (ties by
// id); entries past the tenants with a non-zero count are zero.
type TopTenants [TopK]TenantCount

// full reports whether the ranking holds TopK tenants — only then can a
// tenant with a non-zero count be missing from it.
func (top *TopTenants) full() bool { return top[TopK-1].Count != 0 }

// add ranks (id, count) in, dropping the smallest entry when full. The id
// must not be ranked already.
func (top *TopTenants) add(id string, count uint64) {
	if count == 0 {
		return
	}
	at := TopK
	for at > 0 && (top[at-1].Count < count || top[at-1].Count == count && top[at-1].ID > id) {
		at--
	}
	if at == TopK {
		return
	}
	copy(top[at+1:], top[at:TopK-1])
	top[at] = TenantCount{ID: id, Count: count}
}

// drop removes id from the ranking and reports whether it was there.
func (top *TopTenants) drop(id string) bool {
	for i := range top {
		if top[i].ID == id {
			copy(top[i:], top[i+1:])
			top[TopK-1] = TenantCount{}
			return true
		}
	}
	return false
}

// raise re-ranks id after its count grew to count. Counts only grow, so a
// tenant enters a ranking by its own raise and nobody's raise pushes it
// back in: raising every count as it moves keeps the ranking exact until a
// ranked tenant leaves (see shard.forget).
func (top *TopTenants) raise(id string, count uint64) {
	if top[TopK-1].Count > count { // below a full ranking: not in it, not entering
		return
	}
	top.drop(id)
	top.add(id, count)
}

// TelemetryTotals is the cumulative part of the fleet-wide telemetry fold
// — what a shard accumulates at step time. It only grows: tenants closed
// since keep their contribution. A restored tenant's checkpointed history
// is not counted, like Stats.Observations.
type TelemetryTotals struct {
	// Levels holds the per-level decision histograms, indexed like
	// TelemetryLevels.
	Levels [len(TelemetryLevels)]LevelTelemetry
	// QoSViolations and DegradedTicks count control periods whose interval
	// mean response exceeded the target / that were decided through the
	// deterministic fallback; StaleObservations counts module observations
	// the input sanitizer held at the last good value.
	QoSViolations, DegradedTicks, StaleObservations uint64
	// Dropped counts flight-recorder records overwritten before the fold
	// read them — possible only for a ring smaller than one bin's output.
	Dropped uint64
}

func (a *TelemetryTotals) add(b *TelemetryTotals) {
	for l := range a.Levels {
		to, from := &a.Levels[l], &b.Levels[l]
		to.Decisions += from.Decisions
		to.DecideNs += from.DecideNs
		to.Explored += from.Explored
		for i := range to.DecideBuckets {
			to.DecideBuckets[i] += from.DecideBuckets[i]
		}
		for i := range to.ExploredBuckets {
			to.ExploredBuckets[i] += from.ExploredBuckets[i]
		}
	}
	a.QoSViolations += b.QoSViolations
	a.DegradedTicks += b.DegradedTicks
	a.StaleObservations += b.StaleObservations
	a.Dropped += b.Dropped
}

// TelemetryRankings names the registered tenants with the largest
// cumulative counts, per counter.
type TelemetryRankings struct {
	QoS, Degraded, Stale TopTenants
}

// TelemetrySummary is the fleet-wide fold of the tenants' flight
// recorders: fixed-size whatever the number of tenants.
type TelemetrySummary struct {
	TelemetryTotals
	// Operational is the number of operational computers across the
	// registered tenants, as of each tenant's last decision.
	Operational int
	// Top ranks the registered tenants per counter.
	Top TelemetryRankings
}

// fold adds the records t's flight recorder gained since t.cursor to the
// shard's aggregate and t's own counters, and keeps the shard's rankings
// and operational count current with them. Runs on the shard goroutine,
// right after a bin stepped, so the ring needs to hold one bin's records
// for none to be lost, however rarely anyone scrapes.
//
//hpm:hotpath
func (s *shard) fold(t *tenant) {
	if op := t.sess.Operational(); op != t.operational {
		s.operational.Add(int64(op - t.operational))
		t.operational = op
	}
	rec := t.mgr.Recorder()
	if rec == nil {
		return
	}
	if oldest := rec.Oldest(); t.cursor < oldest {
		s.agg.Dropped += oldest - t.cursor
	}
	s.foldBuf, t.cursor = rec.Since(s.foldBuf[:0], t.cursor)
	qos, degraded, stale := t.qos, t.degraded, t.stale
	for i := range s.foldBuf {
		r := &s.foldBuf[i]
		switch r.Level {
		case obs.LevelTick:
			if r.QoS {
				t.qos++
			}
			if r.Degraded {
				t.degraded++
			}
			if r.Stale > 0 {
				t.stale += uint64(r.Stale)
			}
			continue
		case obs.LevelL1:
			if r.Comp != -1 { // per-computer detail row
				continue
			}
		case obs.LevelL2:
			if r.Module != -1 { // per-module detail row
				continue
			}
		}
		lv := &s.agg.Levels[r.Level-obs.LevelL0]
		lv.Decisions++
		lv.DecideNs += r.DecideNs
		lv.Explored += int64(r.Explored)
		for b, bound := range decideBoundsNs {
			if r.DecideNs <= bound {
				lv.DecideBuckets[b]++
				break
			}
		}
		for b, bound := range exploredBounds {
			if r.Explored <= bound {
				lv.ExploredBuckets[b]++
				break
			}
		}
	}
	if t.qos != qos {
		s.agg.QoSViolations += t.qos - qos
		s.top.QoS.raise(t.id, t.qos)
	}
	if t.degraded != degraded {
		s.agg.DegradedTicks += t.degraded - degraded
		s.top.Degraded.raise(t.id, t.degraded)
	}
	if t.stale != stale {
		s.agg.StaleObservations += t.stale - stale
		s.top.Stale.raise(t.id, t.stale)
	}
}

// forget takes a closing tenant out of the shard's operational count and
// rankings. Runs in the tenant's close job, after its last fold. Leaving a
// full ranking opens a place for a tenant outside it, which only a pass
// over the shard's tenants can find (rare: a fleet has K such tenants per
// counter); any other departure leaves the rankings exact as they are.
func (s *shard) forget(f *Fleet, t *tenant) {
	s.operational.Add(int64(-t.operational))
	rerank := false
	for _, top := range []*TopTenants{&s.top.QoS, &s.top.Degraded, &s.top.Stale} {
		wasFull := top.full()
		rerank = top.drop(t.id) && wasFull || rerank
	}
	if !rerank {
		return
	}
	s.top = TelemetryRankings{}
	// The registry is the fleet's; the counters read through it are this
	// shard's own. Nothing holds f.mu while waiting on a shard.
	f.mu.RLock()
	for _, m := range f.tenants {
		if m.home == s && !m.closed {
			s.top.QoS.add(m.id, m.qos)
			s.top.Degraded.add(m.id, m.degraded)
			s.top.Stale.add(m.id, m.stale)
		}
	}
	f.mu.RUnlock()
}

// TelemetrySummary returns the fleet-wide telemetry fold; see
// TelemetrySummaryInto, which it calls with a read of its own.
func (f *Fleet) TelemetrySummary() (TelemetrySummary, error) {
	var rd TelemetryRead
	err := f.TelemetrySummaryInto(&rd)
	return rd.Summary, err
}

// TelemetryRead is a caller-owned fleet-wide telemetry read: Summary is
// the last read's result, and the per-shard parts and the shard jobs that
// fill them stay for the next read, so a warm read allocates nothing. The
// zero value is ready to use; it serves one read at a time.
type TelemetryRead struct {
	Summary TelemetrySummary
	call    *telemetryCall
}

// telemetryCall is a TelemetryRead's per-shard state, bound to one fleet:
// one part and one job per shard, and the completion the jobs share. A
// read the fleet's close cut short drops it, since a shard that outlives
// the close may still write its part.
type telemetryCall struct {
	fleet *Fleet
	parts []TelemetrySummary
	jobs  []telemetryJob
	// pending counts the shard jobs still running; the one that drops it to
	// zero puts the read's token in done (buffered, drained by the read).
	pending atomic.Int64
	done    chan struct{}
}

// telemetryJob copies one shard's share of the fold into its part. It is
// its own queue entry, as a sweepJob is, so a read costs no closure.
type telemetryJob struct {
	call *telemetryCall
	home *shard
	part *TelemetrySummary
}

func (j *telemetryJob) run() {
	s := j.home
	*j.part = TelemetrySummary{TelemetryTotals: s.agg, Operational: int(s.operational.Load()), Top: s.top}
	if j.call.pending.Add(-1) == 0 {
		j.call.done <- struct{}{}
	}
}

// TelemetrySummaryInto reads the fleet-wide telemetry fold into
// dst.Summary: one job per shard copies what the shard accumulated as its
// tenants stepped into dst's part for it, summed and merged here. No
// tenant is visited, so the cost does not depend on how many there are.
func (f *Fleet) TelemetrySummaryInto(dst *TelemetryRead) error {
	c := dst.call
	if c == nil || c.fleet != f {
		c = &telemetryCall{
			fleet: f,
			parts: make([]TelemetrySummary, len(f.shards)),
			jobs:  make([]telemetryJob, len(f.shards)),
			done:  make(chan struct{}, 1),
		}
		for i, s := range f.shards {
			c.jobs[i] = telemetryJob{call: c, home: s, part: &c.parts[i]}
		}
		dst.call = c
	}
	c.pending.Store(int64(len(c.jobs)))
	for i := range c.jobs {
		select {
		case c.jobs[i].home.jobs <- &c.jobs[i]:
		case <-f.ctx.Done():
			dst.call = nil
			return ErrClosed
		}
	}
	if err := f.await(c.done); err != nil {
		dst.call = nil
		return err
	}
	out := &dst.Summary
	*out = c.parts[0]
	for i := 1; i < len(c.parts); i++ {
		p := &c.parts[i]
		out.TelemetryTotals.add(&p.TelemetryTotals)
		out.Operational += p.Operational
		for k := range p.Top.QoS {
			out.Top.QoS.add(p.Top.QoS[k].ID, p.Top.QoS[k].Count)
			out.Top.Degraded.add(p.Top.Degraded[k].ID, p.Top.Degraded[k].Count)
			out.Top.Stale.add(p.Top.Stale[k].ID, p.Top.Stale[k].Count)
		}
	}
	return nil
}
