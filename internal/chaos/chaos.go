// Package chaos provides deterministic sensor-fault injection for the
// simulation engine: named, per-seed fault plans that corrupt what the
// controllers *observe* — dropped observation bins, NaN/negative/spiked
// counts, delayed delivery, duplicated observations — plus availability
// flapping expressed as ordinary workload failure events, so a chaos plan
// composes with a scenario's own failure plan.
//
// Faults are planned in workload-clock seconds and quantized onto engine
// ticks exactly like cluster.FailureSteps quantizes failure plans
// (ceil(At/period)), so a plan serves any control cadence. The injector
// never touches the plant: arrivals, completions, and energy accounting
// stay truthful; only the policy-visible interval statistics are
// perturbed. An empty plan is a guaranteed no-op — runs with a zero-fault
// plan are bit-identical to runs with no plan at all (pinned by the chaos
// equivalence suite).
//
// Invariant: plan builders must be deterministic per seed — two Build
// calls with the same seed and span return identical plans. Everything
// downstream (the committed BENCH_chaos.json matrix, the CLI runs) relies
// on it.
package chaos

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"hierctl/internal/workload"
)

// Kind enumerates the sensor-fault actions an injector can apply to one
// module's interval observation.
type Kind uint8

const (
	// KindDrop suppresses the module's observation for Ticks consecutive
	// ticks: the sanitizer holds the last good value and counts staleness.
	KindDrop Kind = iota
	// KindNaN corrupts the observation's counts and response with NaN —
	// the sanitizer must reject it and hold the last good value.
	KindNaN
	// KindNegative corrupts the observation with negative counts —
	// rejected by the sanitizer like NaN.
	KindNegative
	// KindSpike multiplies the observed arrival count by Factor (default
	// 1000). The numbers stay finite and non-negative, so the spike
	// passes sanitization — it probes graceful degradation of the
	// estimator chain, not input validation.
	KindSpike
	// KindDelay withholds the tick's observation and delivers it Ticks
	// ticks late, superseding that tick's fresh observation; the tick it
	// was taken from reads as dropped.
	KindDelay
	// KindDupe re-delivers the tick's observation on the following tick,
	// superseding the fresh one.
	KindDupe
)

var kindNames = [...]string{"drop", "nan", "negative", "spike", "delay", "dupe"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Fault is one planned sensor fault: module Module's observation is
// perturbed per Kind at workload-clock time At seconds past the trace
// start. Runners quantize At to the next control boundary; Module == -1
// targets every module, and module indices not present in the cluster
// under test are skipped, so one plan serves clusters of any shape.
type Fault struct {
	At     float64
	Module int
	Kind   Kind
	// Ticks extends KindDrop over consecutive ticks and sets the
	// KindDelay delivery lag; 0 means 1.
	Ticks int
	// Factor scales the observed arrivals for KindSpike; 0 means 1000.
	Factor float64
}

// Plan is a deterministic sensor-fault plan: sensor faults, optional
// availability flapping (ordinary failure events, appended to the
// scenario's own plan by the engine), and an optional LLC decision
// budget. The zero value is the empty plan.
type Plan struct {
	// Name identifies the plan in matrices and reports.
	Name string
	// Faults are the sensor faults, applied in plan order within a tick.
	Faults []Fault
	// Failures is availability flapping: fail/repair events composed with
	// the scenario failure plan and fired by the engine's usual
	// quantize-to-tick injection path.
	Failures []workload.FailureEvent
	// DecisionBudget caps each controller decision's search work (0 =
	// unlimited), counted per level: the states an L0 lookahead
	// evaluates, the abstraction-map probes of an L1 decision, the J̃
	// terms an L2 decision prices. A squeezed budget is injectable chaos
	// like any sensor fault: searches that exhaust it trip the
	// deterministic deadline fallback.
	DecisionBudget int
}

// Empty reports whether the plan injects nothing (an empty plan is
// pinned bit-identical to running with no plan at all).
func (p Plan) Empty() bool {
	return len(p.Faults) == 0 && len(p.Failures) == 0 && p.DecisionBudget == 0
}

// Action is one tick-quantized injector instruction: Fault minus the
// timing, resolved to a concrete module.
type Action struct {
	Module int
	Kind   Kind
	Ticks  int
	Factor float64
}

// Schedule maps engine ticks to the actions firing on them. Build one per
// run with Plan.Schedule; a nil *Schedule is a valid, empty schedule.
type Schedule struct {
	at map[int][]Action
}

// Schedule quantizes the plan's faults onto control ticks of the given
// period (ceil(At/period), matching cluster.FailureSteps) for a cluster
// of the given module count. Module == -1 fans out to every module;
// out-of-range module indices are dropped here, mirroring the failure
// injector's skip semantics.
func (p Plan) Schedule(periodSeconds float64, modules int) (*Schedule, error) {
	if periodSeconds <= 0 {
		return nil, fmt.Errorf("chaos: period %v <= 0", periodSeconds)
	}
	if len(p.Faults) == 0 {
		return nil, nil
	}
	s := &Schedule{at: map[int][]Action{}}
	for i, f := range p.Faults {
		if !(f.At >= 0) || math.IsInf(f.At, 1) {
			// NaN and +Inf have no tick: int() of either differs by platform.
			return nil, fmt.Errorf("chaos: fault %d at %v, want a finite time >= 0", i, f.At)
		}
		if int(f.Kind) >= len(kindNames) {
			return nil, fmt.Errorf("chaos: fault %d has unknown kind %d", i, f.Kind)
		}
		ticks := f.Ticks
		if ticks <= 0 {
			ticks = 1
		}
		factor := f.Factor
		if factor == 0 {
			factor = 1000
		}
		k := int(math.Ceil(f.At / periodSeconds))
		lo, hi := f.Module, f.Module
		if f.Module < 0 {
			lo, hi = 0, modules-1
		}
		for m := lo; m <= hi; m++ {
			if m < 0 || m >= modules {
				continue
			}
			s.at[k] = append(s.at[k], Action{Module: m, Kind: f.Kind, Ticks: ticks, Factor: factor})
		}
	}
	if len(s.at) == 0 {
		return nil, nil
	}
	return s, nil
}

// ActionsAt returns the actions firing on tick k, in plan order. Safe on
// a nil schedule.
func (s *Schedule) ActionsAt(k int) []Action {
	if s == nil {
		return nil
	}
	return s.at[k]
}

// Spec is one chaos plan builder. Build must be deterministic per (seed,
// span): the chaos matrix snapshot is committed byte-for-byte.
type Spec struct {
	// Name is the plan's key (lowercase, no spaces or colons).
	Name string
	// Description is a one-line summary for listings and docs.
	Description string
	// Build materializes the plan for a run spanning span workload-clock
	// seconds (trace end minus start), seeded deterministically.
	Build func(seed int64, span float64) Plan
}

// Specs returns every chaos plan spec sorted by name.
func Specs() []Spec { return slices.Clone(specs) }

// Names returns the sorted plan names.
func Names() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// Lookup resolves a plan spec by name, erroring with the full list so CLI
// callers get an actionable message.
func Lookup(name string) (Spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("chaos: unknown plan %q (plans: %s)", name, strings.Join(Names(), ", "))
}
