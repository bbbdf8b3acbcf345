package fleet

import "hierctl/internal/core"

// TopK is how many tenants each worst-tenant ranking of Stats names: a
// constant, so a metrics scrape's size does not depend on the number of
// tenants.
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

// TelemetryRankings names the registered tenants with the largest
// cumulative counts, per counter.
type TelemetryRankings struct {
	QoS, Degraded, Stale TopTenants
}

// count moves what t's step decided — the shard's tally, a bin's partial
// output included when the step stopped mid-bin — into the shard's totals
// and t's counters, keeps the rankings and operational count current with
// them, and empties the tally for the next step. The totals also gain the
// step's wall clock, ns nanoseconds, and, when the bin applied cleanly,
// one observation and its T_L0 periods. Runs on the shard goroutine after
// every step, however it ended, so a faulted bin counts for the tenant
// that ran it and nothing carries into the next tenant's.
//
//hpm:hotpath
func (s *shard) count(t *tenant, clean bool, ns int64) {
	if op := t.sess.Operational(); op != t.operational { // as of the last clean bin
		s.operational.Add(int64(op - t.operational))
		t.operational = op
	}
	tl := &s.tally
	s.mu.Lock()
	defer s.mu.Unlock()
	s.agg.Add(tl)
	s.stepNs += ns
	if clean {
		s.observations++
		s.ticks += int64(t.sub)
	}
	if tl.QoSViolations != 0 {
		t.qos += tl.QoSViolations
		s.top.QoS.raise(t.id, t.qos)
	}
	if tl.DegradedTicks != 0 {
		t.degraded += tl.DegradedTicks
		s.top.Degraded.raise(t.id, t.degraded)
	}
	if tl.StaleObservations != 0 {
		t.stale += tl.StaleObservations
		s.top.Stale.raise(t.id, t.stale)
	}
	*tl = core.Tally{}
}

// forget takes a closing tenant out of the shard's operational count and
// rankings. Runs in the tenant's close job, after its last step. Leaving a
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
