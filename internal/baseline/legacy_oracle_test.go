package baseline

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

// legacyRun is the package's pre-engine private step loop, kept verbatim
// as the equivalence oracle for the engine-backed Run. Do not modify it:
// the whole point is that Run must keep producing bit-identical results
// against an independent implementation of the mechanics.
func legacyRun(spec cluster.Spec, policy Policy, trace *series.Series, store *workload.Store, cfg RunnerConfig) (*Result, error) {
	if policy == nil {
		return nil, fmt.Errorf("baseline: nil policy")
	}
	if trace == nil || trace.Len() == 0 {
		return nil, fmt.Errorf("baseline: empty trace")
	}
	sub := int(trace.Step/controller.PeriodL0 + 0.5)
	if sub < 1 || math.Abs(float64(sub)*controller.PeriodL0-trace.Step) > 1e-6 {
		return nil, fmt.Errorf("baseline: trace bin %vs not a multiple of period %vs", trace.Step, controller.PeriodL0)
	}
	plant, err := cluster.NewPlant(spec, des.RNG(cfg.Seed, "dispatch"))
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(trace, store, des.RNG(cfg.Seed, "workload"))
	if err != nil {
		return nil, err
	}

	// Flatten the cluster: policies are module-agnostic.
	type slot struct{ i, j int }
	var slots []slot
	preroll := 0.0
	for i := range spec.Modules {
		for j := range spec.Modules[i].Computers {
			slots = append(slots, slot{i, j})
			if d := spec.Modules[i].Computers[j].BootDelaySeconds; d > preroll {
				preroll = d
			}
		}
	}
	total := len(slots)

	// Start everything on at full speed (same warm start as the
	// hierarchy).
	for _, s := range slots {
		if err := plant.PowerOn(s.i, s.j); err != nil {
			return nil, err
		}
		comp := plant.Computer(s.i, s.j)
		if err := comp.SetFrequencyIndex(len(comp.Spec().FrequenciesHz) - 1); err != nil {
			return nil, err
		}
	}
	if preroll > 0 {
		if err := plant.Advance(preroll); err != nil {
			return nil, err
		}
		for i := range spec.Modules {
			if _, _, err := plant.ModuleIntervalStats(i); err != nil {
				return nil, err
			}
		}
	}

	steps := trace.Len() * sub
	adaptEvery := int(controller.DefaultPeriodL1 / controller.PeriodL0)
	res := &Result{
		Policy:       policy.Name(),
		Operational:  series.New(preroll, controller.DefaultPeriodL1, 0),
		ResponseMean: series.New(preroll, controller.PeriodL0, 0),
	}
	wantOn := total
	cHat := workload.DefaultCHat
	lastRate := 0.0
	lastUtil := 0.0
	violations, respBins := 0, 0

	var pending [][]workload.Request
	pending = make([][]workload.Request, steps)

	failAt := cluster.FailureSteps(cfg.Failures, controller.PeriodL0)

	for k := 0; k < steps; k++ {
		t := preroll + float64(k)*controller.PeriodL0
		if err := plant.ApplyPlannedFailures(cfg.Failures, failAt, k); err != nil {
			return nil, err
		}
		if k%sub == 0 {
			bin, reqs, ok := gen.NextBin()
			if !ok {
				return nil, fmt.Errorf("baseline: trace exhausted at step %d", k)
			}
			binStart := trace.TimeAt(bin)
			for _, req := range reqs {
				idx := k + int((req.Arrival-binStart)/controller.PeriodL0)
				if idx >= steps {
					idx = steps - 1
				}
				req.Arrival += preroll - trace.Start
				pending[idx] = append(pending[idx], req)
			}
		}

		// Adaptation: on/off per the policy's watermark rule.
		if k%adaptEvery == 0 {
			act := policy.Decide(Observation{
				Operational: plant.OperationalComputers(),
				Total:       total,
				Utilization: lastUtil,
				ArrivalRate: lastRate,
				CHat:        cHat,
			})
			want := act.Operational
			if want < 1 {
				want = 1
			}
			if want > total {
				want = total
			}
			wantOn = want
			on := 0
			for _, s := range slots {
				comp := plant.Computer(s.i, s.j)
				operational := comp.State() == cluster.PowerOn || comp.State() == cluster.Booting
				switch {
				case on < wantOn && !operational && comp.State() != cluster.Failed:
					if err := plant.PowerOn(s.i, s.j); err != nil {
						return nil, err
					}
					on++
				case on < wantOn && operational:
					on++
				case on >= wantOn && operational:
					if err := plant.PowerOff(s.i, s.j); err != nil {
						return nil, err
					}
				}
			}
			res.Operational.Values = append(res.Operational.Values, float64(plant.OperationalComputers()))
			// Frequency targets for the coming period.
			perComp := lastRate / math.Max(1, float64(plant.OperationalComputers()))
			for _, s := range slots {
				comp := plant.Computer(s.i, s.j)
				if !comp.Serving() && comp.State() != cluster.Booting {
					continue
				}
				spec := comp.Spec()
				idx := phiFor(spec.PhiLadder(), perComp, cHat, spec.SpeedFactor, act.PhiTarget)
				if err := comp.SetFrequencyIndex(idx); err != nil {
					return nil, err
				}
			}
		}

		// Dispatch uniformly across fully-on computers.
		if len(pending[k]) > 0 {
			gm := make([]float64, len(spec.Modules))
			gc := make([][]float64, len(spec.Modules))
			for i := range spec.Modules {
				gc[i] = make([]float64, len(spec.Modules[i].Computers))
			}
			for _, s := range slots {
				comp := plant.Computer(s.i, s.j)
				if comp.State() == cluster.PowerOn {
					gc[s.i][s.j] = 1
					gm[s.i]++
				}
			}
			if err := plant.Dispatch(pending[k], gm, gc); err != nil {
				return nil, err
			}
			pending[k] = nil
		}

		if err := plant.Advance(t + controller.PeriodL0); err != nil {
			return nil, err
		}

		// Harvest.
		arrived, completed := 0, 0
		respSum, busySum, demandSum := 0.0, 0.0, 0.0
		busyN := 0
		for i := range spec.Modules {
			agg, _, err := plant.ModuleIntervalStats(i)
			if err != nil {
				return nil, err
			}
			arrived += agg.Arrived
			completed += agg.Completed
			if agg.Completed > 0 {
				respSum += agg.MeanResponse * float64(agg.Completed)
				demandSum += agg.MeanDemand * float64(agg.Completed)
			}
			busySum += agg.Busy * float64(len(spec.Modules[i].Computers))
			busyN += len(spec.Modules[i].Computers)
		}
		lastRate = float64(arrived) / controller.PeriodL0
		if op := plant.OperationalComputers(); op > 0 && busyN > 0 {
			// Utilization over operational computers only.
			lastUtil = busySum / float64(op)
			if lastUtil > 1 {
				lastUtil = 1
			}
		}
		mean := 0.0
		if completed > 0 {
			mean = respSum / float64(completed)
			cHat = 0.9*cHat + 0.1*demandSum/float64(completed)
			respBins++
			if mean > controller.TargetResponse {
				violations++
			}
		}
		res.ResponseMean.Values = append(res.ResponseMean.Values, mean)
	}

	// Events quantized exactly to the final boundary still fire before
	// the drain, matching the hierarchical engine.
	if err := plant.ApplyPlannedFailures(cfg.Failures, failAt, steps); err != nil {
		return nil, err
	}
	end := preroll + float64(steps)*controller.PeriodL0
	if err := plant.Advance(end + engine.DefaultDrainSeconds); err != nil {
		return nil, err
	}
	plant.FinishAccounting()
	res.Energy = plant.TotalEnergy()
	res.Switches = plant.TotalSwitches()
	for _, s := range slots {
		comp := plant.Computer(s.i, s.j)
		res.Completed += comp.TotalCompleted()
		res.Dropped += comp.TotalDropped()
	}
	res.MeanResponse = plant.Latencies().Mean()
	res.ResponseP95 = plant.Latencies().Quantile(0.95)
	if respBins > 0 {
		res.ViolationFrac = float64(violations) / float64(respBins)
	}
	return res, nil
}

// TestRunMatchesLegacyOracle pins the engine migration: the engine-backed
// Run must reproduce the legacy step loop bit-for-bit — every scalar and
// every recorded series — across the scenario registry, multiple seeds,
// and both threshold policies, failure plans included.
func TestRunMatchesLegacyOracle(t *testing.T) {
	module, err := cluster.StandardModule("M1", "c")
	if err != nil {
		t.Fatal(err)
	}
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{module}}

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
				if trace.Len() > 48 {
					trace = trace.Slice(0, 48)
				}
				plan := sc.FailurePlan(trace)
				store, err := workload.NewStore(des.NewStream(seed, "store"), sc.StoreConfig())
				if err != nil {
					t.Fatal(err)
				}

				var pol Policy
				if seed%2 == 0 {
					pol, err = NewThresholdDVFS(0.35, 0.8, 1, 0.7)
				} else {
					pol, err = NewThreshold(0.35, 0.8, 1)
				}
				if err != nil {
					t.Fatal(err)
				}

				cfg := DefaultRunnerConfig()
				cfg.Seed = seed
				cfg.Failures = plan

				want, err := legacyRun(spec, pol, trace, store, cfg)
				if err != nil {
					t.Fatalf("seed %d: legacy: %v", seed, err)
				}
				// Policies are stateless between runs at the same
				// watermarks, but rebuild anyway so neither path sees
				// shared state.
				if seed%2 == 0 {
					pol, err = NewThresholdDVFS(0.35, 0.8, 1, 0.7)
				} else {
					pol, err = NewThreshold(0.35, 0.8, 1)
				}
				if err != nil {
					t.Fatal(err)
				}
				store2, err := workload.NewStore(des.NewStream(seed, "store"), sc.StoreConfig())
				if err != nil {
					t.Fatal(err)
				}
				got, err := Run(spec, pol, trace, store2, cfg)
				if err != nil {
					t.Fatalf("seed %d: engine: %v", seed, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("seed %d: engine run diverges from legacy oracle\nlegacy: %+v\nengine: %+v", seed, want, got)
				}
			}
		})
	}
}
