package central

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"hierctl/internal/cluster"
	"hierctl/internal/controller"
	"hierctl/internal/des"
	"hierctl/internal/engine"
	"hierctl/internal/forecast"
	"hierctl/internal/series"
	"hierctl/internal/workload"
)

// legacyRun is the package's pre-engine private step loop, kept as the
// equivalence oracle for the engine-backed Run. Do not modify its
// mechanics: Run must keep producing bit-identical results against an
// independent implementation of them. It follows the controller's API (the
// decision in force passed in, the overhead counted here) and times
// nothing: the wall-clock field is zeroed before comparison.
func legacyRun(spec cluster.Spec, trace *series.Series, store *workload.Store, cfg RunnerConfig) (*Result, error) {
	if err := cfg.Controller.Validate(); err != nil {
		return nil, err
	}
	if trace == nil || trace.Len() == 0 {
		return nil, fmt.Errorf("central: empty trace")
	}
	sub := int(trace.Step/controller.PeriodL0 + 0.5)
	if sub < 1 || math.Abs(float64(sub)*controller.PeriodL0-trace.Step) > 1e-6 {
		return nil, fmt.Errorf("central: trace bin %vs not a multiple of sub-period %vs", trace.Step, controller.PeriodL0)
	}
	plant, err := cluster.NewPlant(spec, des.RNG(cfg.Seed, "dispatch"))
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(trace, store, des.RNG(cfg.Seed, "workload"))
	if err != nil {
		return nil, err
	}

	// Flatten the cluster.
	type slot struct{ i, j int }
	var slots []slot
	var specs []cluster.ComputerSpec
	preroll := 0.0
	for i := range spec.Modules {
		for j := range spec.Modules[i].Computers {
			slots = append(slots, slot{i, j})
			specs = append(specs, spec.Modules[i].Computers[j])
			if d := spec.Modules[i].Computers[j].BootDelaySeconds; d > preroll {
				preroll = d
			}
		}
	}
	ctl, err := New(cfg.Controller, specs)
	if err != nil {
		return nil, err
	}
	kalman, err := forecast.NewKalman(1, 0.1, 10)
	if err != nil {
		return nil, err
	}
	if tuned, _, err := forecast.TuneKalman(trace.Values[:min(len(trace.Values), max(8, trace.Len()/5))]); err == nil {
		ql, qt, ro := tuned.Params()
		if kalman, err = forecast.NewKalman(ql, qt, ro); err != nil {
			return nil, err
		}
	}
	band, err := forecast.NewBand(forecast.BandSmoothing)
	if err != nil {
		return nil, err
	}
	cEst, err := forecast.NewEWMA(forecast.CHatSmoothing)
	if err != nil {
		return nil, err
	}

	// Warm start all-on at full speed.
	for k, s := range slots {
		if err := plant.PowerOn(s.i, s.j); err != nil {
			return nil, err
		}
		if err := plant.SetFrequency(s.i, s.j, len(specs[k].FrequenciesHz)-1); err != nil {
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

	tl0 := controller.PeriodL0
	steps := trace.Len() * sub
	decideEvery := int(controller.DefaultPeriodL1/tl0 + 0.5)
	res := &Result{Operational: series.New(preroll, controller.DefaultPeriodL1, 0)}
	pending := make([][]workload.Request, steps)
	queues := make([]float64, len(slots))
	var gamma []float64
	var inForce *Decision
	explored, decisions := 0, 0
	arrivedPeriod := 0
	violations, respBins := 0, 0
	cHat := workload.DefaultCHat

	failAt := cluster.FailureSteps(cfg.Failures, tl0)

	for k := 0; k < steps; k++ {
		t := preroll + float64(k)*tl0
		if err := plant.ApplyPlannedFailures(cfg.Failures, failAt, k); err != nil {
			return nil, err
		}
		if k%sub == 0 {
			bin, reqs, ok := gen.NextBin()
			if !ok {
				return nil, fmt.Errorf("central: trace exhausted at step %d", k)
			}
			binStart := trace.TimeAt(bin)
			for _, req := range reqs {
				idx := k + int((req.Arrival-binStart)/tl0)
				if idx >= steps {
					idx = steps - 1
				}
				req.Arrival += preroll - trace.Start
				pending[idx] = append(pending[idx], req)
			}
		}

		if k%decideEvery == 0 {
			if k > 0 {
				prior := kalman.Observe(float64(arrivedPeriod))
				if kalman.Steps() > 1 {
					band.Observe(prior, float64(arrivedPeriod))
				}
				arrivedPeriod = 0
			}
			avail := make([]bool, len(slots))
			for idx, s := range slots {
				comp := plant.Computer(s.i, s.j)
				avail[idx] = comp.State() != cluster.Failed
			}
			dec, err := ctl.Decide(Observation{
				QueueLens: queues,
				LambdaHat: math.Max(0, kalman.Forecast(1)) / controller.DefaultPeriodL1,
				Delta:     band.Delta() / controller.DefaultPeriodL1,
				CHat:      cHat,
				Available: avail,
				InForce:   inForce,
			})
			if err != nil {
				return nil, err
			}
			inForce = &dec
			explored += dec.Explored
			decisions++
			for idx, s := range slots {
				comp := plant.Computer(s.i, s.j)
				operational := comp.State() == cluster.PowerOn || comp.State() == cluster.Booting
				if dec.Alpha[idx] && !operational {
					if err := plant.PowerOn(s.i, s.j); err != nil {
						return nil, err
					}
				}
				if !dec.Alpha[idx] && operational {
					if err := plant.PowerOff(s.i, s.j); err != nil {
						return nil, err
					}
				}
				if err := plant.SetFrequency(s.i, s.j, dec.FreqIdx[idx]); err != nil {
					return nil, err
				}
			}
			gamma = dec.Gamma
			res.Operational.Values = append(res.Operational.Values, float64(plant.OperationalComputers()))
		}

		// Dispatch per the joint fractions, zeroing non-serving targets.
		if len(pending[k]) > 0 {
			gm := make([]float64, len(spec.Modules))
			gc := make([][]float64, len(spec.Modules))
			for i := range spec.Modules {
				gc[i] = make([]float64, len(spec.Modules[i].Computers))
			}
			for idx, s := range slots {
				comp := plant.Computer(s.i, s.j)
				if comp.State() == cluster.PowerOn {
					gc[s.i][s.j] = gamma[idx]
					gm[s.i] += gamma[idx]
				}
			}
			if err := plant.Dispatch(pending[k], gm, gc); err != nil {
				return nil, err
			}
			pending[k] = nil
		}

		if err := plant.Advance(t + tl0); err != nil {
			return nil, err
		}

		arrived, completed := 0, 0
		respSum, demandSum := 0.0, 0.0
		qi := 0
		for i := range spec.Modules {
			agg, per, err := plant.ModuleIntervalStats(i)
			if err != nil {
				return nil, err
			}
			arrived += agg.Arrived
			completed += agg.Completed
			if agg.Completed > 0 {
				respSum += agg.MeanResponse * float64(agg.Completed)
				demandSum += agg.MeanDemand * float64(agg.Completed)
			}
			for _, st := range per {
				queues[qi] = float64(st.QueueLen)
				qi++
			}
		}
		arrivedPeriod += arrived
		if completed > 0 {
			if cEst.Observe(demandSum / float64(completed)); cEst.Started() {
				cHat = cEst.Value()
			}
			respBins++
			if respSum/float64(completed) > controller.TargetResponse {
				violations++
			}
		}
	}

	// Events quantized exactly to the final boundary still fire before
	// the drain, matching the hierarchical engine.
	if err := plant.ApplyPlannedFailures(cfg.Failures, failAt, steps); err != nil {
		return nil, err
	}
	end := preroll + float64(steps)*tl0
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
	if respBins > 0 {
		res.ViolationFrac = float64(violations) / float64(respBins)
	}
	if decisions > 0 {
		res.ExploredPerStep = float64(explored) / float64(decisions)
	}
	return res, nil
}

// TestRunMatchesLegacyOracle pins the engine migration for the flat
// controller: the engine-backed Run must reproduce the legacy step loop
// bit-for-bit across the scenario registry and multiple seeds. Wall-clock
// decide time is the one nondeterministic field and is zeroed before
// comparison.
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
				if trace.Len() > 24 {
					trace = trace.Slice(0, 24)
				}
				plan := sc.FailurePlan(trace)
				cfg := DefaultRunnerConfig()
				cfg.Seed = seed
				cfg.Failures = plan
				cfg.Controller.NeighbourDepth = 1

				store, err := workload.NewStore(des.NewStream(seed, "store"), sc.StoreConfig())
				if err != nil {
					t.Fatal(err)
				}
				want, err := legacyRun(spec, trace, store, cfg)
				if err != nil {
					t.Fatalf("seed %d: legacy: %v", seed, err)
				}
				store2, err := workload.NewStore(des.NewStream(seed, "store"), sc.StoreConfig())
				if err != nil {
					t.Fatal(err)
				}
				got, err := Run(spec, trace, store2, cfg)
				if err != nil {
					t.Fatalf("seed %d: engine: %v", seed, err)
				}

				// Zero the wall-clock field; align the p95 the shared run
				// totals carry and the oracle predates.
				want.DecideTimePerStep = 0
				gotCopy := *got
				gotCopy.DecideTimePerStep = 0
				want.ResponseP95 = gotCopy.ResponseP95
				if !reflect.DeepEqual(want, &gotCopy) {
					t.Errorf("seed %d: engine run diverges from legacy oracle\nlegacy: %+v\nengine: %+v", seed, want, &gotCopy)
				}
			}
		})
	}
}
