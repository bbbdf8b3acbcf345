// Command hpmsim runs one closed-loop simulation — the hierarchical LLC
// controller or a baseline policy — against a chosen cluster and a named
// workload scenario, and prints a summary.
//
// Usage:
//
//	hpmsim                                  # §4.3 module, synthetic load, LLC
//	hpmsim -cluster 4 -workload wc98        # §5.2: 4 modules / 16 computers
//	hpmsim -workload flashcrowd             # any registered scenario
//	hpmsim -workload failstorm              # correlated failures mid-peak
//	hpmsim -workload tracefile:day.csv      # replay a recorded trace
//	hpmsim -policy threshold -workload wc98
//	hpmsim -policy always-on -scale 0.25
//	hpmsim -l3 2 -workload wc98             # 2 clusters, shared clock, L3 budget
//	hpmsim -fast -trace decisions.json      # Chrome trace_event decision timeline
//	hpmsim -fast -trace-jsonl decisions.jsonl
//	hpmsim -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -trace and -trace-jsonl attach the decision flight recorder to the LLC
// hierarchy and export every tick/L0/L1/L2 record; load the -trace file in
// chrome://tracing or https://ui.perfetto.dev. The profiles are standard
// pprof files (go tool pprof cpu.pprof).
//
// Scenario traces are amplitude-scaled to the selected cluster size (the
// paper's §4.3 recipe), and scenario failure plans are injected for every
// policy. hpmgen -list enumerates the registered scenarios.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hierctl"
	"hierctl/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hpmsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (retErr error) {
	fs := flag.NewFlagSet("hpmsim", flag.ContinueOnError)
	policy := fs.String("policy", "llc", "control policy: llc, threshold, threshold-dvfs, always-on")
	l3 := fs.Int("l3", 0, "run N clusters under one shared clock with an L3 layer reallocating a shared computer budget (threshold policy per cluster; 0 = single-cluster mode)")
	l3Budget := fs.Int("l3-budget", 0, "total operational-computer budget across the -l3 clusters (0 = 75% of all computers)")
	workloadFlag := fs.String("workload", "synthetic", "workload scenario name (hpmgen -list enumerates; tracefile:<path> replays a CSV)")
	clusterFlag := fs.Int("cluster", 0, "number of 4-computer modules (0 = single §4.3 module)")
	moduleSize := fs.Int("module-size", 4, "computers in the single module (when -cluster 0)")
	scale := fs.Float64("scale", 1, "fraction of the trace to simulate (0, 1]")
	seed := fs.Int64("seed", 1, "random seed")
	fast := fs.Bool("fast", false, "coarse learning grids (quick runs)")
	artifacts := fs.String("artifacts", "", "directory caching offline learning results (must exist)")
	traceOut := fs.String("trace", "", "write the LLC decision timeline as a Chrome trace_event file (chrome://tracing / Perfetto)")
	traceJSONL := fs.String("trace-jsonl", "", "write the LLC decision records as JSON Lines")
	startProfiles := obs.ProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := startProfiles()
	if err != nil {
		return err
	}
	defer stopProfiles(&retErr)
	wantTrace := *traceOut != "" || *traceJSONL != ""
	if wantTrace && (*policy != "llc" || *l3 > 0) {
		return fmt.Errorf("-trace/-trace-jsonl record the LLC hierarchy's decisions; they need -policy llc without -l3")
	}

	var spec hierctl.ClusterSpec
	if *clusterFlag > 0 {
		spec, err = hierctl.StandardCluster(*clusterFlag)
	} else if *moduleSize == 4 {
		spec, err = hierctl.StandardModuleCluster()
	} else {
		spec, err = hierctl.ScaledModuleCluster(*moduleSize)
	}
	if err != nil {
		return err
	}

	sc, err := hierctl.LookupScenario(*workloadFlag)
	if err != nil {
		return err
	}

	if *l3 > 0 {
		if *l3 < 2 {
			return fmt.Errorf("-l3 %d: a cross-cluster layer needs at least 2 clusters", *l3)
		}
		return runL3(stdout, spec, sc, *l3, *l3Budget, *seed, *scale)
	}

	trace, err := sc.Trace(*seed)
	if err != nil {
		return err
	}
	sc.ScaleToCluster(trace, spec.Computers())
	opts := hierctl.ExperimentOptions{Scale: *scale, Seed: *seed, Fast: *fast}
	trace = trimTrace(trace, *scale)
	// Entries addressing slots outside the selected cluster are skipped by
	// the runners themselves (the shared injection contract).
	plan := sc.FailurePlan(trace)

	store, err := hierctl.NewStore(*seed, sc.StoreConfig())
	if err != nil {
		return err
	}

	if *policy == "llc" {
		cfg := opts.Config()
		cfg.ArtifactDir = *artifacts
		mgr, err := hierctl.NewManager(spec, cfg)
		if err != nil {
			return err
		}
		var flight *hierctl.TelemetryRecorder
		if wantTrace {
			if flight, err = hierctl.NewTelemetryRecorder(recorderCapacity(trace, spec, cfg.L0.PeriodSeconds)); err != nil {
				return err
			}
			mgr.SetRecorder(flight)
		}
		mgr.InjectPlan(plan)
		rec, err := mgr.Run(trace, store)
		if err != nil {
			return err
		}
		if wantTrace {
			if err := exportTelemetry(stdout, flight, *traceOut, *traceJSONL, cfg.L0.PeriodSeconds); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "policy            hierarchical-llc\n")
		fmt.Fprintf(stdout, "computers         %d\n", spec.Computers())
		fmt.Fprintf(stdout, "requests          %d completed, %d dropped\n", rec.Completed, rec.Dropped)
		fmt.Fprintf(stdout, "mean response     %.3f s (target %.1f s)\n", rec.MeanResponse(), rec.TargetResponse)
		fmt.Fprintf(stdout, "response p50/p95  %.3f / %.3f s (p99 %.3f, max %.3f)\n",
			rec.ResponseP50, rec.ResponseP95, rec.ResponseP99, rec.ResponseMax)
		fmt.Fprintf(stdout, "violation frac    %.3f of intervals\n", rec.ViolationFrac)
		fmt.Fprintf(stdout, "energy            %.1f units\n", rec.Energy)
		fmt.Fprintf(stdout, "power switches    %d\n", rec.Switches)
		fmt.Fprintf(stdout, "operational mean  %.2f computers\n", rec.Operational.Mean())
		fmt.Fprintf(stdout, "states per L1     %.0f\n", rec.ExploredPerL1Decision())
		fmt.Fprintf(stdout, "decide per period %v\n", rec.DecisionTimePerPeriod())
		fmt.Fprintf(stdout, "offline learning  %v\n", rec.LearnTime)
		return nil
	}

	var pol hierctl.BaselinePolicy
	switch *policy {
	case "threshold":
		pol, err = hierctl.ThresholdPolicy(0.35, 0.8, 1)
	case "threshold-dvfs":
		pol, err = hierctl.ThresholdDVFSPolicy(0.35, 0.8, 1, 0.8)
	case "always-on":
		pol = hierctl.AlwaysOnPolicy()
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}
	if err != nil {
		return err
	}
	bcfg := hierctl.DefaultBaselineConfig()
	bcfg.Seed = *seed
	bcfg.Failures = plan
	res, err := hierctl.RunBaseline(spec, pol, trace, store, bcfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "policy            %s\n", res.Policy)
	fmt.Fprintf(stdout, "computers         %d\n", spec.Computers())
	fmt.Fprintf(stdout, "requests          %d completed, %d dropped\n", res.Completed, res.Dropped)
	fmt.Fprintf(stdout, "mean response     %.3f s (target %.1f s)\n", res.MeanResponse, bcfg.TargetResponse)
	fmt.Fprintf(stdout, "violation frac    %.3f of intervals\n", res.ViolationFrac)
	fmt.Fprintf(stdout, "energy            %.1f units\n", res.Energy)
	fmt.Fprintf(stdout, "power switches    %d\n", res.Switches)
	fmt.Fprintf(stdout, "operational mean  %.2f computers\n", res.Operational.Mean())
	return nil
}

// runL3 drives n copies of the selected cluster under one shared
// simulation clock, each fed the scenario under a different seed, with the
// proportional-share L3 layer reallocating a shared computer budget every
// 240 s (see engine.MultiCluster). Each cluster runs the threshold policy
// — the budget cap rides on the baseline adaptation hook.
func runL3(stdout io.Writer, spec hierctl.ClusterSpec, sc hierctl.Scenario, n, budget int, seed int64, scale float64) error {
	clusters := make([]hierctl.L3Cluster, n)
	total := 0
	for idx := range clusters {
		tr, err := sc.Trace(seed + int64(idx))
		if err != nil {
			return err
		}
		sc.ScaleToCluster(tr, spec.Computers())
		tr = trimTrace(tr, scale)
		// Stagger the clusters' loads (full, half, third, ...) so the
		// budget split has an asymmetry to track.
		for i := range tr.Values {
			tr.Values[i] /= float64(idx + 1)
		}
		store, err := hierctl.NewStore(seed+int64(idx), sc.StoreConfig())
		if err != nil {
			return err
		}
		pol, err := hierctl.ThresholdPolicy(0.35, 0.8, 1)
		if err != nil {
			return err
		}
		bcfg := hierctl.DefaultBaselineConfig()
		bcfg.Seed = seed + int64(idx)
		bcfg.Failures = sc.FailurePlan(tr)
		clusters[idx] = hierctl.L3Cluster{
			Name:   fmt.Sprintf("cluster-%d", idx+1),
			Spec:   spec,
			Policy: pol,
			Trace:  tr,
			Store:  store,
			Config: bcfg,
		}
		total += spec.Computers()
	}
	if budget <= 0 {
		budget = total * 3 / 4
	}
	const l3Period = 240.0
	results, events, err := hierctl.RunMultiCluster(clusters, hierctl.ProportionalShare{}, budget, l3Period)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "l3 policy         proportional-share (%d clusters, budget %d of %d computers, period %.0f s)\n",
		n, budget, total, l3Period)
	for idx, res := range results {
		fmt.Fprintf(stdout, "%-17s %d completed, %d dropped, mean response %.3f s, energy %.1f, operational mean %.2f\n",
			clusters[idx].Name, res.Completed, res.Dropped, res.MeanResponse, res.Energy, res.Operational.Mean())
	}
	fmt.Fprintf(stdout, "reallocations     %d\n", len(events))
	show := events
	if len(show) > 8 {
		show = show[:5]
	}
	for _, ev := range show {
		fmt.Fprintf(stdout, "  t=%6.0fs budgets %v (window arrivals %v)\n", ev.Time, ev.Budgets, ev.Arrived)
	}
	if len(events) > 8 {
		fmt.Fprintf(stdout, "  ... %d more ...\n", len(events)-6)
		last := events[len(events)-1]
		fmt.Fprintf(stdout, "  t=%6.0fs budgets %v (window arrivals %v)\n", last.Time, last.Budgets, last.Arrived)
	}
	return nil
}

// recorderCapacity sizes the flight recorder to hold the whole run: one
// tick record plus one L0 record per computer every period, and the L1/L2
// summary + detail bursts on their (sparser) periods — bounded above by
// one record per computer and per module every tick. Clamped so a huge
// -cluster/-scale combination cannot balloon memory; if the ring still
// wraps, the export keeps the newest window and says so.
func recorderCapacity(tr *hierctl.Series, spec hierctl.ClusterSpec, periodSeconds float64) int {
	ticks := int(float64(tr.Len())*tr.Step/periodSeconds) + 2
	perTick := 2 + 2*spec.Computers() + len(spec.Modules)
	n := ticks * perTick
	if n > 1<<20 {
		n = 1 << 20
	}
	if n < 1024 {
		n = 1024
	}
	return n
}

// exportTelemetry writes the recorded decision stream to the requested
// trace/JSONL files.
func exportTelemetry(stdout io.Writer, flight *hierctl.TelemetryRecorder, tracePath, jsonlPath string, periodSeconds float64) error {
	recs := flight.Window(nil, 0)
	if dropped := flight.Total() - uint64(len(recs)); dropped > 0 {
		fmt.Fprintf(stdout, "telemetry         ring wrapped: exporting newest %d of %d records\n", len(recs), flight.Total())
	}
	write := func(path string, fn func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if tracePath != "" {
		if err := write(tracePath, func(w io.Writer) error {
			return hierctl.WriteDecisionTrace(w, recs, periodSeconds)
		}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace             %s (%d records; load in chrome://tracing or ui.perfetto.dev)\n", tracePath, len(recs))
	}
	if jsonlPath != "" {
		if err := write(jsonlPath, func(w io.Writer) error {
			return hierctl.WriteTelemetryJSONL(w, recs)
		}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace-jsonl       %s (%d records)\n", jsonlPath, len(recs))
	}
	return nil
}

func trimTrace(tr *hierctl.Series, scale float64) *hierctl.Series {
	n := int(float64(tr.Len()) * scale)
	if n < 16 {
		n = min(16, tr.Len())
	}
	return tr.Slice(0, n)
}
