// Benchmarks regenerating every figure and table of the paper's
// evaluation (the "§4.3 / §5.2 — evaluation" rows of docs/ARCHITECTURE.md
// are the experiment index) plus micro-benchmarks of the hot control
// paths. Closed-loop benches run at a reduced trace scale with coarse
// learning grids so one iteration stays in the hundreds of milliseconds;
// run cmd/hpmbench for paper-scale numbers.
//
// The sweep and learning pools are sized by GOMAXPROCS, so `go test
// -bench Sweep -cpu 1,4,8` measures their speedup over the sequential run
// on the same workloads.
//
// Custom metrics reported per benchmark:
//
//	energy        total energy consumed (abstract units)
//	resp_ms       mean response time in milliseconds
//	viol_pct      percent of T_L0 intervals violating r*
//	states_per_L1 map probes per L1 period (§4.3's overhead metric)
package hierctl

import (
	"testing"

	"hierctl/internal/cluster"
	"hierctl/internal/controller"
	"hierctl/internal/forecast"
	"hierctl/internal/queue"
)

func benchOpts(seed int64) ExperimentOptions {
	return ExperimentOptions{Scale: 0.05, Seed: seed, Fast: true}
}

func reportRecord(b *testing.B, rec *Record) {
	b.Helper()
	b.ReportMetric(rec.Energy, "energy")
	b.ReportMetric(rec.MeanResponse()*1000, "resp_ms")
	b.ReportMetric(rec.ViolationFrac*100, "viol_pct")
	b.ReportMetric(rec.ExploredPerL1Decision(), "states_per_L1")
}

// BenchmarkFig3FrequencyTable regenerates the static Fig. 3 catalogue.
func BenchmarkFig3FrequencyTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Fig3Table(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4ModuleControl runs the §4.3 module experiment (Fig. 4):
// synthetic diurnal load, m = 4 module, full hierarchy.
func BenchmarkFig4ModuleControl(b *testing.B) {
	var rec *Record
	for i := 0; i < b.N; i++ {
		var err error
		rec, err = RunFig4Fig5(benchOpts(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRecord(b, rec)
}

// BenchmarkFig5L0Control measures the L0 exhaustive search at paper
// settings (N_L0 = 3 over C4's eight frequencies) — the inner loop behind
// Fig. 5.
func BenchmarkFig5L0Control(b *testing.B) {
	spec, err := cluster.StandardComputer(3, "C4")
	if err != nil {
		b.Fatal(err)
	}
	l0, err := controller.NewL0(controller.DefaultL0Config(), spec)
	if err != nil {
		b.Fatal(err)
	}
	lambda := []float64{40, 45, 50}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l0.Decide(float64(i%200), lambda, 0, 0.0175); err != nil {
			b.Fatal(err)
		}
	}
	explored, decisions, _ := l0.Overhead()
	b.ReportMetric(float64(explored)/float64(decisions), "states_per_decide")
}

// BenchmarkFig6ClusterControl runs the §5.2 cluster experiment (Fig. 6):
// WC'98-like day on 16 computers in 4 modules.
func BenchmarkFig6ClusterControl(b *testing.B) {
	var rec *Record
	for i := 0; i < b.N; i++ {
		var err error
		rec, err = RunFig6Fig7(benchOpts(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRecord(b, rec)
}

// BenchmarkFig7LoadDistribution measures the L2 decision (Fig. 7's γ_i)
// over the quantized simplex with regression-tree cost lookups.
func BenchmarkFig7LoadDistribution(b *testing.B) {
	jt := make([]controller.JTilde, 4)
	for i := range jt {
		jt[i] = quadraticJTilde{scale: 100 + 20*float64(i)}
	}
	l2, err := controller.NewL2(controller.DefaultL2Config(), jt)
	if err != nil {
		b.Fatal(err)
	}
	obs := controller.L2Observation{
		QAvg:      []float64{5, 10, 0, 20},
		LambdaHat: 300,
		Delta:     20,
		CHat:      []float64{0.0175, 0.0175, 0.0175, 0.0175},
	}
	b.ResetTimer()
	var explored int
	for i := 0; i < b.N; i++ {
		dec, err := l2.Decide(obs)
		if err != nil {
			b.Fatal(err)
		}
		explored = dec.Explored
	}
	b.ReportMetric(float64(explored), "states_per_decide")
}

type quadraticJTilde struct{ scale float64 }

func (q quadraticJTilde) Predict(qAvg, lambda, c float64) (float64, error) {
	return (lambda/q.scale)*(lambda/q.scale) + 0.01*qAvg + 0.8, nil
}

// Overhead benches (OVH1): §4.3 module sizes m = 4, 6, 10.
func benchmarkOverheadModule(b *testing.B, m int, quantum float64) {
	var row OverheadRow
	for i := 0; i < b.N; i++ {
		var err error
		row, err = RunOverheadModule(m, quantum, benchOpts(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.ExploredPerL1, "states_per_L1")
	b.ReportMetric(float64(row.DecisionTime.Microseconds()), "decide_us_per_L1")
	b.ReportMetric(row.MeanResponse*1000, "resp_ms")
}

func BenchmarkOverheadModuleM4(b *testing.B)  { benchmarkOverheadModule(b, 4, 0.05) }
func BenchmarkOverheadModuleM6(b *testing.B)  { benchmarkOverheadModule(b, 6, 0.1) }
func BenchmarkOverheadModuleM10(b *testing.B) { benchmarkOverheadModule(b, 10, 0.1) }

// Overhead benches (OVH2): §5.2 cluster sizes 16 and 20 computers.
func benchmarkOverheadCluster(b *testing.B, p int) {
	var row OverheadRow
	for i := 0; i < b.N; i++ {
		var err error
		row, err = RunOverheadCluster(p, benchOpts(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.ExploredPerL1, "states_per_L1")
	b.ReportMetric(float64(row.DecisionTime.Microseconds()), "decide_us_per_L1")
	b.ReportMetric(row.MeanResponse*1000, "resp_ms")
}

func BenchmarkOverheadCluster16(b *testing.B) { benchmarkOverheadCluster(b, 4) }
func BenchmarkOverheadCluster20(b *testing.B) { benchmarkOverheadCluster(b, 5) }

// BenchmarkEnergyVsBaselines runs the EXT1 comparison (LLC vs always-on vs
// thresholds) and reports the LLC saving over the static configuration.
func BenchmarkEnergyVsBaselines(b *testing.B) {
	var rows []EnergyRow
	for i := 0; i < b.N; i++ {
		var err error
		opts := benchOpts(int64(i + 1))
		opts.Scale = 0.1
		rows, err = RunEnergyComparison(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	var llcE, onE float64
	for _, r := range rows {
		switch r.Policy {
		case "hierarchical-llc":
			llcE = r.Energy
		case "always-on":
			onE = r.Energy
		}
	}
	if onE > 0 {
		b.ReportMetric(100*(1-llcE/onE), "saving_pct")
	}
}

// Ablation benches (EXT2): the design choices RunAblations toggles
// (docs/ARCHITECTURE.md, "§4.3 / §5.2 — evaluation").
func benchmarkAblation(b *testing.B, mutate func(*Config)) {
	spec, err := StandardModuleCluster()
	if err != nil {
		b.Fatal(err)
	}
	synth := DefaultSyntheticConfig()
	trace, err := SyntheticTrace(synth)
	if err != nil {
		b.Fatal(err)
	}
	trace = trace.Slice(0, 320) // ~2.7 h
	var rec *Record
	for i := 0; i < b.N; i++ {
		opts := benchOpts(int64(i + 1))
		cfg := opts.Config()
		mutate(&cfg)
		mgr, err := NewManager(spec, cfg)
		if err != nil {
			b.Fatal(err)
		}
		store, err := NewStore(opts.Seed, DefaultStoreConfig())
		if err != nil {
			b.Fatal(err)
		}
		rec, err = mgr.Run(store, SessionConfig{Trace: trace})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRecord(b, rec)
}

func BenchmarkAblationHorizon1(b *testing.B) {
	benchmarkAblation(b, func(c *Config) { c.L0.Horizon = 1 })
}

func BenchmarkAblationHorizon3(b *testing.B) {
	benchmarkAblation(b, func(c *Config) { c.L0.Horizon = 3 })
}

func BenchmarkAblationNoChatteringMitigation(b *testing.B) {
	benchmarkAblation(b, func(c *Config) {
		c.L1.UncertaintySamples = false
		c.L2.UncertaintySamples = false
	})
}

func BenchmarkAblationCoarseQuantum(b *testing.B) {
	benchmarkAblation(b, func(c *Config) { c.L1.Quantum = 0.2 })
}

func BenchmarkAblationNoSwitchPenalty(b *testing.B) {
	benchmarkAblation(b, func(c *Config) { c.L1.SwitchWeight = 0 })
}

// BenchmarkScalabilityHierVsCentral runs the EXT3 study (hierarchical vs
// flat centralized control) at 4 and 8 computers and reports the explored
// state ratio — §3's dimensionality argument as a number.
func BenchmarkScalabilityHierVsCentral(b *testing.B) {
	var rows []ScalabilityRow
	for i := 0; i < b.N; i++ {
		opts := benchOpts(int64(i + 1))
		opts.Scale = 0.03
		var err error
		rows, err = RunScalability([]int{4, 8}, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	var h8, c8 float64
	for _, r := range rows {
		if r.Computers == 8 {
			if r.Controller == "hierarchical" {
				h8 = r.ExploredPerPeriod
			} else {
				c8 = r.ExploredPerPeriod
			}
		}
	}
	if h8 > 0 {
		b.ReportMetric(c8/h8, "central_vs_hier_states_x")
	}
}

// Parallel sweep benches: every worker pool at once. Run with -cpu 1,4,8 — the worker pools inherit GOMAXPROCS, so the
// -cpu 1 column is the sequential engine and the others the speedup.

// BenchmarkScalabilitySweep is the Fig. 6/EXT3 sweep end-to-end: cluster
// sizes fan out, each hierarchy fans out its offline learning, and the
// centralized baseline shards its candidate search.
func BenchmarkScalabilitySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := benchOpts(int64(i + 1))
		opts.Scale = 0.03
		if _, err := RunScalability([]int{4, 8}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverheadModuleSweep runs the three OVH1 module configurations
// as one fanned-out batch (vs the sequential per-size benches above).
func BenchmarkOverheadModuleSweep(b *testing.B) {
	var rows []OverheadRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = RunOverheadModules(DefaultOverheadCases(), benchOpts(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].ExploredPerL1, "states_per_L1")
}

// BenchmarkOverheadClusterSweep runs both OVH2 cluster sizes as one batch.
func BenchmarkOverheadClusterSweep(b *testing.B) {
	var rows []OverheadRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = RunOverheadClusters([]int{4, 5}, benchOpts(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].ExploredPerL1, "states_per_L1")
}

// BenchmarkAblationSweep fans the nine EXT2 variants across the pool.
func BenchmarkAblationSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := benchOpts(int64(i + 1))
		opts.Scale = 0.03
		if _, err := RunAblations(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks of the hot paths.

func BenchmarkLLCExhaustiveSearch(b *testing.B) {
	spec, err := cluster.StandardComputer(1, "C2") // 10 operating points
	if err != nil {
		b.Fatal(err)
	}
	l0, err := controller.NewL0(controller.DefaultL0Config(), spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l0.Decide(50, []float64{40}, 0, 0.0175); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFluidQueueStep(b *testing.B) {
	s := queue.State{Q: 50}
	p := queue.Params{Lambda: 40, C: 0.0175, Phi: 0.8, T: 30}
	for i := 0; i < b.N; i++ {
		next, err := queue.Step(s, p)
		if err != nil {
			b.Fatal(err)
		}
		s.R = next.R
	}
}

func BenchmarkKalmanObserveForecast(b *testing.B) {
	kf, err := forecast.NewKalman(1, 0.1, 10)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		kf.Observe(float64(i % 100))
		kf.Forecast(3)
	}
}

func BenchmarkPlantServeInterval(b *testing.B) {
	spec, err := cluster.StandardComputer(3, "C4")
	if err != nil {
		b.Fatal(err)
	}
	spec.BootDelaySeconds = 0
	comp, err := cluster.NewComputer(spec)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := comp.PowerOn(0); err != nil {
		b.Fatal(err)
	}
	if err := comp.SetFrequencyIndex(len(spec.FrequenciesHz) - 1); err != nil {
		b.Fatal(err)
	}
	t := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// 100 requests per 30 s interval at ~70% utilization.
		for r := 0; r < 100; r++ {
			comp.Enqueue(t+float64(r)*0.3, 0.0175)
		}
		t += 30
		if err := comp.Advance(t); err != nil {
			b.Fatal(err)
		}
		comp.TakeIntervalStats()
	}
}
