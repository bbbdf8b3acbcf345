package fleet

import "hierctl/internal/obs"

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
// for none to be lost, however rarely anyone scrapes. The records are
// decoded before s.mu is taken, so a scrape waits for at most one
// tenant's fold.
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
	var dropped uint64
	if oldest := rec.Oldest(); t.cursor < oldest {
		dropped = oldest - t.cursor
	}
	s.foldBuf, t.cursor = rec.Since(s.foldBuf[:0], t.cursor)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.agg.Dropped += dropped
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
	s.mu.Lock()
	for _, top := range []*TopTenants{&s.top.QoS, &s.top.Degraded, &s.top.Stale} {
		wasFull := top.full()
		rerank = top.drop(t.id) && wasFull || rerank
	}
	s.mu.Unlock()
	if !rerank {
		return
	}
	// The registry is the fleet's; the counters read through it are this
	// shard's own. The rankings are rebuilt under f.mu and swapped in under
	// s.mu, so neither lock is taken while the other is held.
	var top TelemetryRankings
	f.mu.RLock()
	for _, m := range f.tenants {
		if m.home == s && !m.closed {
			top.QoS.add(m.id, m.qos)
			top.Degraded.add(m.id, m.degraded)
			top.Stale.add(m.id, m.stale)
		}
	}
	f.mu.RUnlock()
	s.mu.Lock()
	s.top = top
	s.mu.Unlock()
}

// TelemetrySummary returns the fleet-wide telemetry fold: it reads each
// shard's share — what the shard accumulated as its tenants stepped —
// under that shard's lock, one shard at a time, and sums and merges them.
// No tenant is visited and no shard queue is joined, so the cost depends
// on neither the number of tenants nor the ingest queued on the shards.
func (f *Fleet) TelemetrySummary() (TelemetrySummary, error) {
	if f.ctx.Err() != nil {
		return TelemetrySummary{}, ErrClosed
	}
	var out TelemetrySummary
	for _, s := range f.shards {
		out.Operational += int(s.operational.Load())
		s.mu.Lock()
		out.TelemetryTotals.add(&s.agg)
		for k := range s.top.QoS {
			out.Top.QoS.add(s.top.QoS[k].ID, s.top.QoS[k].Count)
			out.Top.Degraded.add(s.top.Degraded[k].ID, s.top.Degraded[k].Count)
			out.Top.Stale.add(s.top.Stale[k].ID, s.top.Stale[k].Count)
		}
		s.mu.Unlock()
	}
	return out, nil
}
