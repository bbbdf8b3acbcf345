package engine

import (
	"math"

	"hierctl/internal/chaos"
	"hierctl/internal/cluster"
)

// injectorState is one module's sensor-fault injector: the pending drop
// window, a one-shot corruption, and a stashed observation awaiting late
// (KindDelay) or duplicated (KindDupe) delivery. All buffers are owned by
// the harness and reused across ticks.
type injectorState struct {
	dropUntil  int
	corrupt    chaos.Kind
	factor     float64
	hasCorrupt bool
	stash      ModuleStats
	stashDue   int // tick the stash delivers on; -1 = none
}

// sanitizerState is one module's last-good observation, held out to the
// policy whenever the fresh one is dropped or rejected. It starts zeroed:
// a fault before the first good harvest holds the module at an empty
// interval, which is still deterministic.
type sanitizerState struct {
	good ModuleStats
}

func (h *Harness) initSanitizer() {
	n := len(h.cfg.Spec.Modules)
	h.inj = make([]injectorState, n)
	h.san = make([]sanitizerState, n)
	for i := range h.san {
		size := len(h.cfg.Spec.Modules[i].Computers)
		h.san[i].good.Per = make([]cluster.IntervalStats, size)
		h.inj[i].stash.Per = make([]cluster.IntervalStats, size)
		h.inj[i].stashDue = -1
	}
}

func (in *injectorState) stashStats(src ModuleStats) {
	in.stash.Agg = src.Agg
	in.stash.Per = in.stash.Per[:len(src.Per)]
	copy(in.stash.Per, src.Per)
}

// injectAndSanitize runs after the tick's harvest and before the policy's
// Observe: planned sensor faults perturb h.stats in place, then the
// always-on sanitizer rejects non-finite or negative observations and
// holds dropped or rejected modules at their last good value. It returns
// how many modules were held stale this tick. With no chaos schedule and
// clean plant statistics it never modifies h.stats, so fault-free runs
// stay bit-identical to runs without the sanitizer in the path.
//
//hpm:hotpath
func (h *Harness) injectAndSanitize(k int) int {
	for _, a := range h.chaos.ActionsAt(k) {
		in := &h.inj[a.Module]
		switch a.Kind {
		case chaos.KindDrop:
			in.dropUntil = tickAfter(k, a.Ticks)
		case chaos.KindNaN, chaos.KindNegative, chaos.KindSpike:
			in.corrupt, in.factor, in.hasCorrupt = a.Kind, a.Factor, true
		case chaos.KindDelay:
			// Withhold this tick's observation and deliver it late; the
			// tick it was taken from reads as dropped.
			in.stashStats(h.stats[a.Module])
			in.stashDue = tickAfter(k, a.Ticks)
			in.dropUntil = k + 1
		case chaos.KindDupe:
			// This tick delivers normally; its copy supersedes the next
			// tick's fresh observation.
			in.stashStats(h.stats[a.Module])
			in.stashDue = k + 1
		}
	}
	stale := 0
	for i := range h.stats {
		in := &h.inj[i]
		dropped := false
		switch {
		case in.stashDue == k:
			h.stats[i] = ModuleStats{Agg: in.stash.Agg, Per: in.stash.Per}
			in.stashDue = -1
		case k < in.dropUntil:
			dropped = true
		case in.hasCorrupt:
			corruptStats(&h.stats[i], in.corrupt, in.factor)
			in.hasCorrupt = false
		}
		sa := &h.san[i]
		if dropped || !statsValid(h.stats[i]) {
			if !dropped {
				h.rejects++
			}
			h.stats[i] = ModuleStats{Agg: sa.good.Agg, Per: sa.good.Per}
			h.stale++
			stale++
			continue
		}
		// Valid: refresh the last-good copy in place. The buffers were
		// sized at construction, so this never allocates.
		sa.good.Agg = h.stats[i].Agg
		sa.good.Per = sa.good.Per[:len(h.stats[i].Per)]
		copy(sa.good.Per, h.stats[i].Per)
	}
	return stale
}

// tickAfter is k + n, saturating: a plan may ask for a fault that outlasts
// any run, and a sum that wrapped negative would cancel the fault instead
// of holding it to the end.
func tickAfter(k, n int) int {
	if n > math.MaxInt-k {
		return math.MaxInt
	}
	return k + n
}

// corruptStats applies a one-shot corruption to the module's harvested
// interval. The harvest buffers are harness-owned until the next tick, so
// in-place mutation never leaks into the plant.
func corruptStats(st *ModuleStats, kind chaos.Kind, factor float64) {
	switch kind {
	case chaos.KindNaN:
		nan := math.NaN()
		st.Agg.MeanResponse = nan
		st.Agg.MeanDemand = nan
		st.Agg.Busy = nan
	case chaos.KindNegative:
		st.Agg.Arrived = -st.Agg.Arrived - 1
		st.Agg.Completed = -st.Agg.Completed - 1
		st.Agg.QueueLen = -st.Agg.QueueLen - 1
	case chaos.KindSpike:
		// Finite and non-negative: the spike passes sanitization by
		// design, probing the estimator chain rather than validation.
		st.Agg.Arrived = int(float64(st.Agg.Arrived)*factor) + int(factor)
		for j := range st.Per {
			st.Per[j].Arrived = int(float64(st.Per[j].Arrived) * factor)
		}
	}
}

// statsValid reports whether a module observation is fit to show the
// policy: all counts non-negative and all rates finite and non-negative.
func statsValid(st ModuleStats) bool {
	if !intervalValid(st.Agg) {
		return false
	}
	for _, c := range st.Per {
		if !intervalValid(c) {
			return false
		}
	}
	return true
}

func intervalValid(s cluster.IntervalStats) bool {
	if s.Arrived < 0 || s.Completed < 0 || s.QueueLen < 0 {
		return false
	}
	return nonNegFinite(s.MeanResponse) && nonNegFinite(s.MeanDemand) && nonNegFinite(s.Busy)
}

func nonNegFinite(x float64) bool {
	return x >= 0 && !math.IsInf(x, 1)
}
