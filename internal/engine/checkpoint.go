package engine

import (
	"fmt"

	"hierctl/internal/ckpt"
	"hierctl/internal/cluster"
)

// Checkpoint appends the harness's mutable state between two bins: the
// feed's position, the dispatcher's and feed's random streams, the store,
// the plant, the run's counters and window, and the module statistics the
// policy last observed (every tick leaves the sanitizer's last good ones
// equal to them). Everything else — the failure schedule, the tick
// cadence, the pre-roll — follows from Config. A harness mid-bin,
// finished, or running a chaos plan has no checkpoint.
func (h *Harness) Checkpoint(w *ckpt.Writer) error {
	switch {
	case h.finished:
		return fmt.Errorf("engine: checkpoint of a finished harness")
	case h.tick != h.feed.Bins()*h.sub || h.batch != nil:
		return fmt.Errorf("engine: checkpoint mid-bin at tick %d", h.tick)
	case h.chaos != nil:
		return fmt.Errorf("engine: checkpoint of a run under a chaos plan")
	}
	h.feed.Checkpoint(w)
	h.dispatch.Checkpoint(w)
	h.workload.Checkpoint(w)
	h.store.Checkpoint(w)
	h.plant.Checkpoint(w)
	for _, n := range [...]int{h.degraded, h.respTicks, h.violations} {
		w.Int(int64(n))
	}
	w.Int(h.stale)
	w.Int(h.rejects)
	w.Int(int64(h.window.Arrived))
	w.Int(int64(h.window.Completed))
	w.Float(h.window.RespMass)
	w.Float(h.window.DemandMass)
	for i := range h.stats {
		checkpointStats(w, h.stats[i], len(h.per[i])) // Per is nil before the first tick
	}
	return nil
}

// checkpointStats appends a module observation as n computer intervals,
// zero past the end of st.Per.
func checkpointStats(w *ckpt.Writer, st ModuleStats, n int) {
	st.Agg.Checkpoint(w)
	for j := 0; j < n; j++ {
		var c cluster.IntervalStats
		if j < len(st.Per) {
			c = st.Per[j]
		}
		c.Checkpoint(w)
	}
}

// restoreStats reads what checkpointStats wrote into st, whose Per is the
// module's full length.
func restoreStats(r *ckpt.Reader, st *ModuleStats) {
	st.Agg.RestoreCheckpoint(r)
	for j := range st.Per {
		st.Per[j].RestoreCheckpoint(r)
	}
}

// RestoreCheckpoint replaces the state of a harness built from the same
// Config with what Checkpoint wrote. The policy is not touched: it reads
// what it last observed back through LastObserved. twice skips the
// sanitizer's copy of each module observation that older blobs wrote.
func (h *Harness) RestoreCheckpoint(r *ckpt.Reader, twice bool) error {
	if h.finished || h.chaos != nil || h.batch != nil {
		return fmt.Errorf("engine: restore into a finished, chaos-planned or mid-bin harness")
	}
	h.feed.RestoreCheckpoint(r)
	h.tick = h.feed.Bins() * h.sub
	h.dispatch.RestoreCheckpoint(r)
	h.workload.RestoreCheckpoint(r)
	h.store.RestoreCheckpoint(r)
	h.plant.RestoreCheckpoint(r)
	for _, n := range [...]*int{&h.degraded, &h.respTicks, &h.violations} {
		*n = r.IntIn(0, 1<<62, "tick count")
	}
	h.stale = r.Int()
	h.rejects = r.Int()
	h.window.Arrived = r.IntIn(0, 1<<62, "window arrivals")
	h.window.Completed = r.IntIn(0, 1<<62, "window completions")
	h.window.RespMass = r.Float()
	h.window.DemandMass = r.Float()
	for i := range h.stats {
		// The observation is the last good one too, held as a stale tick
		// holds it.
		good := &h.san[i].good
		restoreStats(r, good)
		if twice {
			restoreStats(r, good)
		}
		h.stats[i] = *good
	}
	return r.Err()
}

// LastObserved returns the module statistics the policy's most recent
// Observe was handed — after a restore, the checkpointed ones. The slices
// are harness-owned and valid until the next tick's harvest.
func (h *Harness) LastObserved() []ModuleStats { return h.stats }
