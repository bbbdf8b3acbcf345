package engine

import (
	"hierctl/internal/cluster"
)

// Settings is what a policy wants in force for the tick being decided: the
// dispatch fractions the harness routes the tick's arrivals under. Power
// and frequency actuation happen inside Decide through the plant handle —
// the ordering of those plant calls is part of each policy's contract with
// its historical runner, so the harness does not mediate them.
type Settings struct {
	// GammaModules is the module-level dispatch split γ_i.
	GammaModules []float64
	// GammaComputers is the within-module split γ_ij per module.
	GammaComputers [][]float64
	// Degraded marks a tick the policy decided through its deterministic
	// fallback path (decision budget exhausted or a recovered controller
	// panic) instead of its lookahead search. The harness counts these
	// ticks and stamps the flag onto the tick flight record.
	Degraded bool
}

// ModuleStats is one module's harvested plant interval: the aggregate and
// the per-computer statistics, in module order. The per-computer slice is a
// harness-owned buffer the next tick's harvest overwrites (see
// Policy.Observe); policies that need it longer must copy.
type ModuleStats struct {
	Agg cluster.IntervalStats
	Per []cluster.IntervalStats
}

// Interval is one tick's cluster-wide aggregate of the module observations
// handed to Policy.Observe, summed in module order: the request counts and
// the response and demand masses Σ(module mean × module completions).
// Modules that completed nothing contribute no mass.
type Interval struct {
	Arrived    int
	Completed  int
	RespMass   float64
	DemandMass float64
}

func (iv *Interval) add(agg cluster.IntervalStats) {
	iv.Arrived += agg.Arrived
	iv.Completed += agg.Completed
	if agg.Completed > 0 {
		iv.RespMass += agg.MeanResponse * float64(agg.Completed)
		iv.DemandMass += agg.MeanDemand * float64(agg.Completed)
	}
}

// MeanResponse is the interval's completion-weighted mean response time (0
// when nothing completed).
func (iv Interval) MeanResponse() float64 {
	if iv.Completed == 0 {
		return 0
	}
	return iv.RespMass / float64(iv.Completed)
}

// Policy is the control side of a closed-loop run. The harness owns the
// mechanics — clock, pre-roll, workload feed, failure schedule, dispatch,
// plant advance, interval harvest and its aggregate, QoS judgement and the
// run's totals — and calls back into the policy:
//
//	Init    once, after the warm start and boot pre-roll
//	Decide  at the start of every control tick (failures already applied)
//	Observe after the plant advanced through the tick, with the harvest
//
// The hierarchical (internal/core), threshold (internal/baseline), and
// centralized (internal/central) controllers each implement Policy; the
// shared loop is what makes their event accounting apples-to-apples and
// lets cross-cluster layers observe any of them mid-run.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Init prepares policy state against the warmed plant (every computer
	// on at full speed, boot pre-roll completed: p.Now() is the pre-roll,
	// the simulation time of tick 0).
	Init(p *cluster.Plant) error
	// Decide runs the policy's controllers for tick (deciding at its own
	// cadence) and returns the dispatch fractions for the tick's arrivals.
	// pending is how many requests the tick dispatches; when it is zero the
	// returned fractions are not used.
	Decide(tick, pending int) (Settings, error)
	// Observe folds the tick's harvested plant statistics into the
	// policy's estimators and records: iv is their cluster-wide sum (the
	// same value the harness judged against its QoS target), stats the
	// per-module detail. stats and every stats[i].Per are harness-owned
	// buffers, valid until the next Tick's harvest overwrites them: a
	// policy may keep them across its next Decide (which runs before that
	// harvest) but must copy anything it needs longer.
	Observe(tick int, iv Interval, stats []ModuleStats) error
}

// Budgeted is implemented by policies that honour an externally-imposed
// cap on operational computers — the lever a cross-cluster L3 layer pulls
// when it reallocates a shared power budget (see MultiCluster).
type Budgeted interface {
	// SetBudget caps the number of computers the policy may keep
	// operational; 0 or negative removes the cap.
	SetBudget(maxOperational int)
}
