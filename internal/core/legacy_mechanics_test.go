package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"hierctl/internal/cluster"
	"hierctl/internal/controller"
	"hierctl/internal/des"
	"hierctl/internal/engine"
	"hierctl/internal/series"
	"hierctl/internal/workload"
)

// legacyMechanicsRun reproduces the package's pre-engine session mechanics
// verbatim — own plant and feed, pending ring indexed by step mod sub,
// ceil-quantized failure schedule, dispatch/advance/harvest loop — while
// driving the same policy hooks (Init, Decide, Observe, finish) the
// engine harness calls. It is the equivalence oracle for the engine
// migration: Manager.Run must keep producing bit-identical Records against
// an independent implementation of the mechanics. Do not modify it. The
// failure plan fires as given: every entry must address a computer of m's
// cluster (see inCluster).
func legacyMechanicsRun(m *Manager, trace *series.Series, store *workload.Store, plan []workload.FailureEvent) (*Record, error) {
	binStep, start0 := trace.Step, trace.Start
	tl0 := controller.PeriodL0
	sub := int(binStep/tl0 + 0.5)
	if sub < 1 || math.Abs(float64(sub)*tl0-binStep) > 1e-6 {
		return nil, fmt.Errorf("mechanics oracle: trace bin %vs is not a multiple of T_L0 %vs", binStep, tl0)
	}
	r := &run{
		m:       m,
		trace:   trace,
		sub:     sub,
		tl0:     tl0,
		binStep: binStep,
		start0:  start0,
		l1Every: int(m.cfg.L1.PeriodSeconds/tl0 + 0.5),
		l2Every: int(m.cfg.L2.PeriodSeconds/tl0 + 0.5),
	}
	r.totalSteps = trace.Len() * sub

	plant, err := cluster.NewPlant(m.spec, des.RNG(m.cfg.Seed, "dispatch"))
	if err != nil {
		return nil, err
	}
	feed, err := workload.NewFeed(start0, binStep, store, des.RNG(m.cfg.Seed, "workload"))
	if err != nil {
		return nil, err
	}

	// The hierarchy, built by the session's own constructor on the
	// calibration prefix NewSession takes from a trace.
	if err := r.build(trace.Values[:int(float64(trace.Len())*TunePrefixFrac)], 0); err != nil {
		return nil, err
	}

	// Warm start all-on at full speed, then pre-roll through the boot.
	for i, asm := range r.modules {
		for j := range asm.specs {
			if err := plant.PowerOn(i, j); err != nil {
				return nil, err
			}
			if err := plant.SetFrequency(i, j, len(asm.specs[j].FrequenciesHz)-1); err != nil {
				return nil, err
			}
		}
	}
	preroll := 0.0
	for _, ms := range m.spec.Modules {
		for _, cs := range ms.Computers {
			preroll = math.Max(preroll, cs.BootDelaySeconds)
		}
	}
	if preroll > 0 {
		if err := plant.Advance(preroll); err != nil {
			return nil, err
		}
		for i := range r.modules {
			if _, _, err := plant.ModuleIntervalStats(i); err != nil {
				return nil, err
			}
		}
	}
	if err := r.Init(plant); err != nil {
		return nil, err
	}

	// Legacy mechanics state: the pending ring, the quantized failure
	// schedule, and the step index.
	pending := make([][]workload.Request, sub)
	failAt := make([]int, len(plan))
	for idx, f := range plan {
		failAt[idx] = int(math.Ceil(f.At / tl0))
	}
	applyFailures := func(k int) error {
		for idx, f := range plan {
			if failAt[idx] != k {
				continue
			}
			var err error
			if f.Repair {
				err = plant.Repair(f.Module, f.Comp)
			} else {
				err = plant.Fail(f.Module, f.Comp)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}

	// The interval sum, QoS judgement and run totals the harness now owns,
	// in the legacy loop's own arithmetic.
	var tot engine.Totals
	violations, responseBins := 0, 0

	stepIdx := 0
	steps := trace.Len() * sub
	for _, count := range trace.Values {
		bin, reqs := feed.Push(count)
		binStart := start0 + float64(bin)*binStep
		for _, req := range reqs {
			d := int((req.Arrival - binStart) / tl0)
			if d < 0 {
				d = 0
			}
			if d >= sub {
				d = sub - 1
			}
			req.Arrival += preroll - start0
			slot := (stepIdx + d) % sub
			pending[slot] = append(pending[slot], req)
		}
		for dstep := 0; dstep < sub; dstep++ {
			k := stepIdx
			t := preroll + float64(k)*tl0
			if err := applyFailures(k); err != nil {
				return nil, err
			}
			slot := k % sub
			set, err := r.Decide(k, len(pending[slot]))
			if err != nil {
				return nil, err
			}
			if batch := pending[slot]; len(batch) > 0 {
				pending[slot] = nil
				if err := plant.Dispatch(batch, set.GammaModules, set.GammaComputers); err != nil {
					return nil, err
				}
			}
			if err := plant.Advance(t + tl0); err != nil {
				return nil, err
			}
			if set.Degraded {
				tot.DegradedTicks++
			}
			stats := make([]engine.ModuleStats, len(r.modules))
			var iv engine.Interval
			for i := range r.modules {
				agg, per, err := plant.ModuleIntervalStats(i)
				if err != nil {
					return nil, err
				}
				stats[i] = engine.ModuleStats{Agg: agg, Per: per}
				iv.Arrived += agg.Arrived
				if agg.Completed > 0 {
					iv.Completed += agg.Completed
					iv.RespMass += agg.MeanResponse * float64(agg.Completed)
					iv.DemandMass += agg.MeanDemand * float64(agg.Completed)
				}
			}
			if iv.Completed > 0 {
				responseBins++
				if iv.RespMass/float64(iv.Completed) > controller.TargetResponse {
					violations++
				}
			}
			if err := r.Observe(k, iv, stats); err != nil {
				return nil, err
			}
			stepIdx++
		}
	}
	if err := applyFailures(stepIdx); err != nil {
		return nil, err
	}
	end := preroll + float64(steps)*tl0
	if err := plant.Advance(end + m.cfg.DrainSeconds); err != nil {
		return nil, err
	}
	plant.FinishAccounting()
	tot.Energy = plant.TotalEnergy()
	tot.Switches = plant.TotalSwitches()
	tot.ResponseP95 = plant.Latencies().Quantile(0.95)
	for i := range r.modules {
		for j := 0; j < plant.ModuleSize(i); j++ {
			c := plant.Computer(i, j)
			tot.Completed += c.TotalCompleted()
			tot.Dropped += c.TotalDropped()
		}
	}
	tot.MeanResponse = plant.Latencies().Mean()
	if responseBins > 0 {
		tot.ViolationFrac = float64(violations) / float64(responseBins)
	}
	return r.finish(tot), nil
}

// inCluster returns the entries of plan that address a computer of spec:
// the legacy loop fires every entry it is given, where the engine skips
// the others when they fall due.
func inCluster(spec cluster.Spec, plan []workload.FailureEvent) []workload.FailureEvent {
	var in []workload.FailureEvent
	for _, f := range plan {
		if f.Module >= 0 && f.Module < len(spec.Modules) &&
			f.Comp >= 0 && f.Comp < len(spec.Modules[f.Module].Computers) {
			in = append(in, f)
		}
	}
	return in
}

// TestRunMatchesLegacyMechanics pins the engine migration for the
// hierarchy: the harness-backed Manager.Run must reproduce the legacy
// session mechanics bit-for-bit across the scenario registry, multiple
// seeds, and both sequential and fanned-out offline learning. Wall-clock
// overhead fields are the only nondeterministic ones and are zeroed.
func TestRunMatchesLegacyMechanics(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2), moduleOf("M2", 2)}}

	for _, sc := range workload.Scenarios() {
		if sc.NeedsArg {
			continue
		}
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				trace, err := sc.Trace(seed)
				if err != nil {
					t.Fatal(err)
				}
				sc.ScaleToCluster(trace, 4)
				if trace.Len() > 24 {
					trace = trace.Slice(0, 24)
				}
				plan := sc.FailurePlan(trace)
				cfg := fastConfig()
				cfg.Seed = seed
				// Sweep the learning fan-out: it changes only learning
				// wall-clock time, so results must not depend on it.
				cfg.Parallelism = 1
				if seed%2 == 0 {
					cfg.Parallelism = 4
				}

				newStore := func() *workload.Store {
					s, err := workload.NewStore(des.NewStream(seed, "store"), sc.StoreConfig())
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
				mgrA, err := NewManager(spec, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := legacyMechanicsRun(mgrA, trace, newStore(), inCluster(spec, plan))
				if err != nil {
					t.Fatalf("seed %d: legacy mechanics: %v", seed, err)
				}
				mgrB, err := NewManager(spec, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := mgrB.Run(newStore(), SessionConfig{Trace: trace, Failures: plan})
				if err != nil {
					t.Fatalf("seed %d: engine: %v", seed, err)
				}

				want.LearnTime, got.LearnTime = 0, 0
				want.L0Time, got.L0Time = 0, 0
				want.L1Time, got.L1Time = 0, 0
				want.L2Time, got.L2Time = 0, 0
				if !reflect.DeepEqual(want, got) {
					t.Errorf("seed %d: engine run diverges from legacy mechanics\nlegacy: %+v\nengine: %+v", seed, want, got)
				}
			}
		})
	}
}
