package chaos

import (
	"math/rand"

	"hierctl/internal/workload"
)

// Built-in chaos plans. Fault times are placed at fractions of the run's
// span with small seed-derived jitter, so every plan is deterministic per
// (seed, span) yet not phase-locked to scenario structure across seeds.
// Module targets use -1 (every module) or low indices; runs on smaller
// clusters skip what they don't have, mirroring failure-plan semantics.

// jitter returns a deterministic offset in [-frac, +frac] of span.
func jitter(rng *rand.Rand, span, frac float64) float64 {
	return (2*rng.Float64() - 1) * frac * span
}

func dropPlan(seed int64, span float64) Plan {
	rng := rand.New(rand.NewSource(seed ^ 0x64726f70)) // "drop"
	p := Plan{Name: "drop-bins"}
	for _, at := range []float64{0.20, 0.45, 0.70} {
		p.Faults = append(p.Faults, Fault{
			At:     at*span + jitter(rng, span, 0.02),
			Module: -1,
			Kind:   KindDrop,
			Ticks:  2 + rng.Intn(3),
		})
	}
	return p
}

func corruptPlan(seed int64, span float64) Plan {
	rng := rand.New(rand.NewSource(seed ^ 0x636f7272)) // "corr"
	return Plan{Name: "corrupt-counts", Faults: []Fault{
		{At: 0.25*span + jitter(rng, span, 0.02), Module: -1, Kind: KindNaN},
		{At: 0.45*span + jitter(rng, span, 0.02), Module: -1, Kind: KindNegative},
		{At: 0.65*span + jitter(rng, span, 0.02), Module: -1, Kind: KindSpike, Factor: 1000},
	}}
}

func delayDupePlan(seed int64, span float64) Plan {
	rng := rand.New(rand.NewSource(seed ^ 0x64656c61)) // "dela"
	return Plan{Name: "delay-dupe", Faults: []Fault{
		{At: 0.30*span + jitter(rng, span, 0.02), Module: -1, Kind: KindDelay, Ticks: 2},
		{At: 0.55*span + jitter(rng, span, 0.02), Module: -1, Kind: KindDupe},
		{At: 0.75*span + jitter(rng, span, 0.02), Module: -1, Kind: KindDelay, Ticks: 3},
	}}
}

// flapPlan flaps computer 0 of module 0: three fail/repair pairs spread
// over the middle of the run, each outage lasting ~4% of the span.
func flapPlan(seed int64, span float64) Plan {
	rng := rand.New(rand.NewSource(seed ^ 0x666c6170)) // "flap"
	p := Plan{Name: "flap"}
	for _, at := range []float64{0.30, 0.50, 0.70} {
		fail := at*span + jitter(rng, span, 0.02)
		p.Failures = append(p.Failures,
			workload.FailureEvent{At: fail, Module: 0, Comp: 0},
			workload.FailureEvent{At: fail + 0.04*span, Module: 0, Comp: 0, Repair: true},
		)
	}
	return p
}

// deadlinePlan injects no sensor faults; it squeezes the LLC decision
// budget so searches trip the deterministic deadline fallback under load.
func deadlinePlan(int64, float64) Plan {
	return Plan{Name: "deadline", DecisionBudget: 48}
}

func mixedPlan(seed int64, span float64) Plan {
	p := Plan{Name: "mixed"}
	d := dropPlan(seed, span)
	c := corruptPlan(seed, span)
	f := flapPlan(seed, span)
	p.Faults = append(append(p.Faults, d.Faults...), c.Faults...)
	p.Failures = append(p.Failures, f.Failures...)
	return p
}

// specs is every chaos plan, sorted by name.
var specs = []Spec{
	{
		Name:        "corrupt-counts",
		Description: "NaN, negative, and x1000-spiked observation counts (sanitizer reject + estimator stress)",
		Build:       corruptPlan,
	},
	{
		Name:        "deadline",
		Description: "LLC decision budget squeezed to 48 explored states per decision (fallback probe)",
		Build:       deadlinePlan,
	},
	{
		Name:        "delay-dupe",
		Description: "delayed (2-3 ticks) and duplicated observation delivery (ordering stress)",
		Build:       delayDupePlan,
	},
	{
		Name:        "drop-bins",
		Description: "three multi-tick observation blackouts across all modules (sanitizer hold probe)",
		Build:       dropPlan,
	},
	{
		Name:        "flap",
		Description: "computer 0 of module 0 flaps three times (~4% of span per outage)",
		Build:       flapPlan,
	},
	{
		Name:        "mixed",
		Description: "drop-bins + corrupt-counts + flap combined",
		Build:       mixedPlan,
	},
	{
		Name:        "none",
		Description: "empty plan — pinned bit-identical to running without chaos",
		Build:       func(int64, float64) Plan { return Plan{Name: "none"} },
	},
}
