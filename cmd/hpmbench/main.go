// Command hpmbench regenerates the paper's figures and tables (see the
// README's "Command-line tools" section for the experiment index) and the
// committed BENCH_*.json snapshots. Figures are rendered as ASCII series;
// tables as aligned text.
//
// Usage:
//
//	hpmbench -fig 3                 # Fig. 3: frequency catalogue
//	hpmbench -fig 4                 # Fig. 4: workload, predictions, computers
//	hpmbench -fig 5                 # Fig. 5: C4 frequencies, response times
//	hpmbench -fig 6 -scale 0.5      # Fig. 6 at half the day
//	hpmbench -fig 7
//	hpmbench -table overhead-module # §4.3 overhead (m = 4, 6, 10)
//	hpmbench -table overhead-cluster
//	hpmbench -table energy          # EXT1: LLC vs baselines
//	hpmbench -table ablations       # EXT2: design-choice ablations
//	hpmbench -all                   # every figure and table at the given scale
//	hpmbench -snapshot scenarios    # robustness matrix  -> BENCH_scenarios.json
//	hpmbench -snapshot chaos        # degraded-mode matrix -> BENCH_chaos.json
//	hpmbench -snapshot llc          # branch-and-bound engine -> BENCH_llc.json
//	hpmbench -snapshot tick         # ns/B/allocs per decision -> BENCH_tick.json
//	hpmbench -snapshot fleet -out /tmp/fleet.json # fleet capacity, elsewhere
//
// Exactly one mode may be selected per invocation (-fig, -table, -all or
// -snapshot); conflicting or unknown selections are rejected with the
// valid list. A snapshot runs at its canonical configuration: of the
// workload flags it accepts only the ones its registry entry names
// (snapshots below) and rejects the rest instead of ignoring them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"hierctl"
	"hierctl/internal/metrics"
	"hierctl/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hpmbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) (retErr error) {
	fs := flag.NewFlagSet("hpmbench", flag.ContinueOnError)
	fig := fs.Int("fig", 0, "figure to regenerate (3-7)")
	table := fs.String("table", "", "table to regenerate: "+strings.Join(allTables, ", "))
	all := fs.Bool("all", false, "regenerate every figure and table")
	scale := fs.Float64("scale", 1, "fraction of each trace to simulate (0, 1]")
	seed := fs.Int64("seed", 1, "random seed")
	fast := fs.Bool("fast", false, "coarse learning grids (quick runs)")
	snapshot := fs.String("snapshot", "", "committed benchmark snapshot to regenerate at its canonical configuration: "+strings.Join(snapshotNames(), ", ")+" (each prints its table and writes BENCH_<name>.json)")
	out := fs.String("out", "", "path -snapshot writes to (default: the committed BENCH_<name>.json in the current directory)")
	startProfiles := obs.ProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := startProfiles()
	if err != nil {
		return err
	}
	defer stopProfiles(&retErr)
	if err := validateModes(*fig, *table, *all, *snapshot, *out); err != nil {
		return err
	}
	if *snapshot != "" {
		return writeSnapshot(w, fs, *snapshot, *out, *seed)
	}
	opts := hierctl.ExperimentOptions{Scale: *scale, Seed: *seed, Fast: *fast}

	if *all {
		for _, f := range []int{3, 4, 5, 6, 7} {
			if err := runFig(w, f, opts); err != nil {
				return err
			}
		}
		for _, t := range allTables {
			if err := runTable(w, t, opts); err != nil {
				return err
			}
		}
		return nil
	}
	if *fig != 0 {
		return runFig(w, *fig, opts)
	}
	if *table != "" {
		return runTable(w, *table, opts)
	}
	return fmt.Errorf("nothing to do: pass one of %s", strings.Join(modeFlags, ", "))
}

// modeFlags are the mutually exclusive top-level selections (validateModes
// indexes them in this order); allTables is the batch `-all` runs in order
// and the set -table accepts.
var (
	modeFlags = []string{"-fig", "-table", "-all", "-snapshot"}
	allTables = []string{"overhead-module", "overhead-cluster", "energy", "ablations", "scalability"}
)

// workloadFlags shape an experiment's workload. Figures and tables honour
// all of them; a snapshot runs at a fixed canonical configuration and
// honours only the ones its registry entry lists.
var workloadFlags = []string{"scale", "seed", "fast"}

// validateModes rejects conflicting or unknown mode selections with a
// usage error listing the valid modes.
func validateModes(fig int, table string, all bool, snapshot, out string) error {
	var selected []string
	for i, on := range []bool{fig != 0, table != "", all, snapshot != ""} {
		if on {
			selected = append(selected, modeFlags[i])
		}
	}
	if len(selected) > 1 {
		return fmt.Errorf("conflicting modes %s: pass exactly one of %s",
			strings.Join(selected, " and "), strings.Join(modeFlags, ", "))
	}
	if table != "" && !slices.Contains(allTables, table) {
		return fmt.Errorf("unknown table %q; valid tables: %s", table, strings.Join(allTables, ", "))
	}
	if snapshot == "" && out != "" {
		return fmt.Errorf("-out only applies to -snapshot")
	}
	return nil
}

func runFig(w io.Writer, fig int, opts hierctl.ExperimentOptions) error {
	switch fig {
	case 3:
		tab, err := hierctl.Fig3Table()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Fig. 3: operating frequencies available within each computer ==")
		fmt.Fprintln(w, tab)
		return nil
	case 4, 5:
		rec, err := hierctl.RunFig4Fig5(opts)
		if err != nil {
			return err
		}
		if fig == 4 {
			fmt.Fprintln(w, "== Fig. 4: synthetic workload, Kalman predictions, operational computers ==")
			fmt.Fprint(w, rec.Trace.ASCIIPlot("workload (requests per 30 s bin)", 100, 10))
			fmt.Fprint(w, rec.PredictedL1.ASCIIPlot("predicted arrivals per T_L1 (Kalman)", 100, 8))
			fmt.Fprint(w, rec.ActualL1.ASCIIPlot("actual arrivals per T_L1", 100, 8))
			fmt.Fprint(w, rec.Operational.ASCIIPlot("operational computers", 100, 6))
			pr, ar := rec.PredictedL1.Values, rec.ActualL1.Values
			mae, err := metrics.MAE(pr, ar)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "forecast MAE: %.0f requests per T_L1 (mean actual %.0f)\n\n", mae, rec.ActualL1.Mean())
			return nil
		}
		fmt.Fprintln(w, "== Fig. 5: C4 operating frequency and achieved response times ==")
		if s, ok := rec.FreqByComputer["M1-C4"]; ok {
			fmt.Fprint(w, s.ASCIIPlot("C4 frequency (Hz)", 100, 8))
		}
		fmt.Fprint(w, rec.ResponseMean.ASCIIPlot("mean response per T_L0 bin (s)", 100, 8))
		fmt.Fprintf(w, "mean response %.3f s; target %.1f s met in %.1f%% of intervals\n\n",
			rec.MeanResponse(), rec.TargetResponse, 100*(1-rec.ViolationFrac))
		return nil
	case 6, 7:
		rec, err := hierctl.RunFig6Fig7(opts)
		if err != nil {
			return err
		}
		if fig == 6 {
			fmt.Fprintln(w, "== Fig. 6: WC'98-like workload and operational computers ==")
			fmt.Fprint(w, rec.Trace.ASCIIPlot("workload (requests per 2 min bin)", 100, 10))
			fmt.Fprint(w, rec.Operational.ASCIIPlot("operational computers (of 16)", 100, 8))
			fmt.Fprintf(w, "mean response %.3f s; violations %.1f%%; energy %.0f\n\n",
				rec.MeanResponse(), 100*rec.ViolationFrac, rec.Energy)
			return nil
		}
		fmt.Fprintln(w, "== Fig. 7: load distribution factor γ_i per module ==")
		for i, g := range rec.GammaModules {
			fmt.Fprint(w, g.ASCIIPlot(fmt.Sprintf("module %d γ", i+1), 100, 5))
		}
		return nil
	default:
		return fmt.Errorf("unknown figure %d (have 3-7)", fig)
	}
}

func runTable(w io.Writer, name string, opts hierctl.ExperimentOptions) error {
	switch name {
	case "overhead-module":
		fmt.Fprintln(w, "== §4.3 controller overhead: module sizes (paper: ≈858 states, 2.0 s / 1.1 s / 2.0 s on MATLAB) ==")
		tab := metrics.NewTable("config", "computers", "states/L1 period", "decide/period", "offline learn", "mean resp (s)", "energy")
		rows, err := hierctl.RunOverheadModules(hierctl.DefaultOverheadCases(), opts)
		if err != nil {
			return err
		}
		for _, row := range rows {
			tab.AddRow(row.Label, row.Computers, row.ExploredPerL1, row.DecisionTime.String(), row.LearnTime.String(), row.MeanResponse, row.Energy)
		}
		fmt.Fprintln(w, tab)
		return nil
	case "overhead-cluster":
		fmt.Fprintln(w, "== §5.2 controller overhead: cluster sizes (paper: ≈2.5 s at 16, ≈3.4 s at 20 on MATLAB) ==")
		tab := metrics.NewTable("config", "computers", "states/L1 period", "decide/period", "offline learn", "mean resp (s)", "energy")
		rows, err := hierctl.RunOverheadClusters([]int{4, 5}, opts)
		if err != nil {
			return err
		}
		for _, row := range rows {
			tab.AddRow(row.Label, row.Computers, row.ExploredPerL1, row.DecisionTime.String(), row.LearnTime.String(), row.MeanResponse, row.Energy)
		}
		fmt.Fprintln(w, tab)
		return nil
	case "energy":
		fmt.Fprintln(w, "== EXT1: energy and QoS, hierarchical LLC vs baselines (synthetic day, §4.3 module) ==")
		rows, err := hierctl.RunEnergyComparison(opts)
		if err != nil {
			return err
		}
		tab := metrics.NewTable("policy", "energy", "mean resp (s)", "p95 (s)", "violations", "switches", "completed", "profit ($)")
		for _, r := range rows {
			tab.AddRow(r.Policy, r.Energy, r.MeanResponse, r.ResponseP95, r.ViolationFrac, r.Switches, r.Completed, r.ProfitUSD)
		}
		fmt.Fprintln(w, tab)
		return nil
	case "scalability":
		fmt.Fprintln(w, "== EXT3: hierarchical vs centralized control overhead (§3's dimensionality argument) ==")
		rows, err := hierctl.RunScalability(nil, opts)
		if err != nil {
			return err
		}
		tab := metrics.NewTable("controller", "computers", "states/period", "decide/period", "mean resp (s)", "energy")
		for _, r := range rows {
			tab.AddRow(r.Controller, r.Computers, r.ExploredPerPeriod, r.DecideTimePerPeriod.String(), r.MeanResponse, r.Energy)
		}
		fmt.Fprintln(w, tab)
		return nil
	case "ablations":
		fmt.Fprintln(w, "== EXT2: design-choice ablations (synthetic day, §4.3 module) ==")
		rows, err := hierctl.RunAblations(opts)
		if err != nil {
			return err
		}
		tab := metrics.NewTable("variant", "energy", "mean resp (s)", "violations", "switches", "states/L1")
		for _, r := range rows {
			tab.AddRow(r.Label, r.Energy, r.MeanResponse, r.ViolationFrac, r.Switches, r.ExploredPerL1)
		}
		fmt.Fprintln(w, tab)
		return nil
	default:
		return fmt.Errorf("unknown table %q; valid tables: %s", name, strings.Join(allTables, ", "))
	}
}

// benchSnapshot is one committed BENCH_<name>.json snapshot: how to
// regenerate it, which workload flags its generator honours, and which of
// its columns are deterministic.
type benchSnapshot struct {
	name string
	// honours lists the workload flags (of -seed) the generator takes;
	// every other workload flag is rejected — the configuration is
	// otherwise fixed so the committed file regenerates.
	honours []string
	// columns is the deterministic projection CI diffs across two
	// regenerations and against the committed file; the remaining columns
	// are wall-clock. nil means the snapshot carries no wall-clock fields
	// and regenerates byte-identically at any GOMAXPROCS.
	columns []string
	// run generates the snapshot, prints its table to w, and returns the
	// JSON payload.
	run func(w io.Writer, seed int64) (any, error)
}

// file is the committed snapshot at the repo root, and the default -out.
func (b benchSnapshot) file() string { return "BENCH_" + b.name + ".json" }

// snapshots is the registry behind -snapshot, in the order CI regenerates
// them.
var snapshots = []benchSnapshot{
	{name: "llc", columns: []string{"engine", "explored", "exploredVsNaive"}, run: runLLCBench},
	{name: "tick", columns: []string{"allocsPerDecision", "bytesPerDecision"}, run: runTickBench},
	{name: "fleet", columns: []string{"tenants", "bins", "countPerBin", "snapshotBytes", "batchEqualsSequential", "restoreEqualsReplay"}, run: runFleetBench},
	{name: "scenarios", honours: []string{"seed"}, run: runScenarioMatrix},
	{name: "chaos", honours: []string{"seed"}, run: runChaosMatrix},
}

func snapshotNames() []string {
	names := make([]string, len(snapshots))
	for i, b := range snapshots {
		names[i] = b.name
	}
	return names
}

// writeSnapshot regenerates one registered snapshot: table to w, JSON to
// path (default: the committed file name), then the line CI reads to know
// what to diff. A workload flag the snapshot does not honour is rejected,
// never silently ignored.
func writeSnapshot(w io.Writer, fs *flag.FlagSet, name, path string, seed int64) error {
	i := slices.IndexFunc(snapshots, func(b benchSnapshot) bool { return b.name == name })
	if i < 0 {
		return fmt.Errorf("unknown snapshot %q; valid snapshots: %s", name, strings.Join(snapshotNames(), ", "))
	}
	b := snapshots[i]
	var stray []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(workloadFlags, f.Name) && !slices.Contains(b.honours, f.Name) {
			stray = append(stray, "-"+f.Name)
		}
	})
	if len(stray) > 0 {
		return fmt.Errorf("%s does not apply to -snapshot %s: its configuration is fixed (workload flags it honours: %q)",
			strings.Join(stray, ", "), b.name, b.honours)
	}
	if path == "" {
		path = b.file()
	}
	snap, err := b.run(w, seed)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "snapshot written to %s\n", path)
	if b.columns != nil {
		fmt.Fprintf(w, "deterministic columns: %s\n", strings.Join(b.columns, " "))
	}
	return nil
}

// runScenarioMatrix runs the robustness matrix at its canonical benchmark
// configuration (DefaultScenarioMatrixOptions).
func runScenarioMatrix(w io.Writer, seed int64) (any, error) {
	opts := hierctl.DefaultScenarioMatrixOptions()
	opts.Seed = seed
	snap, err := hierctl.RunScenarioMatrix(opts)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "== Robustness matrix: every registered scenario x {LLC hierarchy, threshold, centralized} ==")
	tab := metrics.NewTable("scenario", "policy", "bins", "completed", "dropped", "energy", "mean resp (s)", "violations", "states/period")
	for _, c := range snap.Cells {
		tab.AddRow(c.Scenario, c.Policy, c.Bins, c.Completed, c.Dropped, c.Energy, c.MeanResponse, c.ViolationFrac, c.ExploredPerPeriod)
	}
	fmt.Fprintln(w, tab)
	return snap, nil
}

// runChaosMatrix runs the degraded-mode matrix at its canonical benchmark
// configuration (DefaultChaosMatrixOptions).
func runChaosMatrix(w io.Writer, seed int64) (any, error) {
	opts := hierctl.DefaultChaosMatrixOptions()
	opts.Seed = seed
	snap, err := hierctl.RunChaosMatrix(opts)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "== Degraded-mode matrix: every registered chaos plan x {LLC hierarchy, threshold, centralized} on %s ==\n", snap.Scenario)
	tab := metrics.NewTable("plan", "policy", "bins", "completed", "dropped", "energy", "mean resp (s)", "violations", "degraded", "stale", "rejects")
	for _, c := range snap.Cells {
		tab.AddRow(c.Plan, c.Policy, c.Bins, c.Completed, c.Dropped, c.Energy, c.MeanResponse, c.ViolationFrac, c.DegradedTicks, c.StaleObservations, c.SanitizedRejects)
	}
	fmt.Fprintln(w, tab)
	return snap, nil
}

// runTickBench measures the steady-state decision tick (ns, heap bytes
// and heap allocations per L0/L1/L2 decision and per table probe, plus
// fleet tenant-ticks/sec). The measurement is sequential by design, which
// is what makes the byte/alloc columns deterministic.
func runTickBench(w io.Writer, _ int64) (any, error) {
	snap, err := hierctl.RunTickBench(256, 64)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "== Decision tick: ns / B / allocs per decision (steady state, warm controllers) ==")
	for _, r := range snap.Rows {
		if r.TenantTicksPerSec > 0 {
			fmt.Fprintf(w, "%-12s %8d ticks      %9.0f ns/tick      %6.0f tenant-ticks/sec\n",
				r.Level, r.Decisions, r.NsPerDecision, r.TenantTicksPerSec)
			continue
		}
		fmt.Fprintf(w, "%-12s %8d decisions  %9.0f ns/decision  %6.0f B/decision  %4.0f allocs/decision\n",
			r.Level, r.Decisions, r.NsPerDecision, r.BytesPerDecision, r.AllocsPerDecision)
	}
	return snap, nil
}

// runFleetBench measures fleet capacity at the canonical tenant scales
// (64, 1024 and 10240 tenants, 16 bins each, constant aggregate offered
// load; the fleet's own shard workers set the parallelism), plus the
// long-history row: the 64 tenants after 4096 bins. The generation
// doubles as an equivalence check: it fails the checks fields if batched
// ingest diverges from sequential Observe calls or a restored fleet
// diverges from the original on the next bin.
func runFleetBench(w io.Writer, _ int64) (any, error) {
	snap, err := hierctl.RunFleetBench(16, []int{64, 1024, 10240})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "== Fleet capacity: batched ingest, snapshot and restore across tenant scales ==")
	for _, r := range snap.Rows {
		fmt.Fprintf(w, "%6d tenants  %6.0f tenant-ticks/sec  %8.0f ns/tick  %5.0f B/bin  %4.1f allocs/bin  scrape %4.0fus %5.0f B  create %6.2fs  snapshot %7.1fms  restore %7.1fms  %9d B\n",
			r.Tenants, r.TenantTicksPerSec, r.NsPerTick, r.AllocBytesPerBin, r.AllocsPerBin, r.ScrapeMicros, r.ScrapeAllocBytes, r.CreateSeconds, r.SnapshotMillis, r.RestoreMillis, r.SnapshotBytes)
	}
	fmt.Fprintf(w, "checks: batchEqualsSequential=%v restoreEqualsReplay=%v\n",
		snap.Checks.BatchEqualsSequential, snap.Checks.RestoreEqualsReplay)
	return snap, nil
}

// runLLCBench measures the branch-and-bound LLC engine against the naive
// search on the §4.3 configuration (the generation doubles as a
// decision-equivalence check across engines). Only the ns/decision and
// speedup columns are wall-clock.
func runLLCBench(w io.Writer, _ int64) (any, error) {
	snap, err := hierctl.RunLLCBench(400)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "== LLC engine: branch-and-bound vs naive search (§4.3 configuration) ==")
	for _, r := range snap.Rows {
		fmt.Fprintf(w, "%-16s explored %8d (%.2fx naive)  %9.0f ns/decision (%.2fx speedup)\n",
			r.Engine, r.Explored, r.ExploredVsNaive, r.NsPerDecision, r.SpeedupVsNaive)
	}
	return snap, nil
}
