package hierctl

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"hierctl/internal/approx"
	"hierctl/internal/cluster"
	"hierctl/internal/controller"
	"hierctl/internal/core"
	"hierctl/internal/fleet"
	"hierctl/internal/par"
	"hierctl/internal/workload"
)

// TickBenchRow is one hot-path measurement of the decision tick: mean
// wall-clock nanoseconds, heap bytes and heap allocations per decision
// (per probe for the table row, per tenant tick for the fleet row).
//
// NsPerDecision is a wall-clock measurement and varies run to run;
// BytesPerDecision and AllocsPerDecision are deterministic in steady
// state — the warm controllers allocate a fixed handful of slices per
// decision — and are the columns CI diffs across regenerations. Both are
// rounded to the nearest integer so a stray runtime allocation during the
// measured window cannot flap the committed numbers.
type TickBenchRow struct {
	// Level identifies the hot path: "L0-decide", "L1-decide",
	// "L2-decide", "table-probe", "bin-scale" / "bin-depth" (one whole
	// Session.ObserveBin — feed, decide, dispatch, plant, harvest and the
	// returned decision — on the fleet bench's scale tenant and on the
	// §4.3-module tenant; Decisions counts bins), or "fleet-<tenants>".
	Level             string  `json:"level"`
	Decisions         int     `json:"decisions"`
	NsPerDecision     float64 `json:"nsPerDecision"`
	BytesPerDecision  float64 `json:"bytesPerDecision"`
	AllocsPerDecision float64 `json:"allocsPerDecision"`
	// TenantTicksPerSec reports fleet throughput (fleet row only): one
	// tick is one T_L0 control period of one tenant. The fleet row's
	// byte/alloc columns are reported as -1: shard goroutines and
	// channels make its allocation counts scheduling-dependent, so they
	// are excluded from the deterministic projection.
	TenantTicksPerSec float64 `json:"tenantTicksPerSec,omitempty"`
}

// TickBenchSnapshot is the BENCH_tick.json payload: the configuration the
// decision ticks were driven over and one row per hot path.
type TickBenchSnapshot struct {
	// Computers is the §4.3 module the L0/L1 rows decide for.
	Computers []string       `json:"computers"`
	Decisions int            `json:"decisions"`
	Tenants   int            `json:"tenants"`
	Rows      []TickBenchRow `json:"rows"`
}

// measureTick warms fn, then measures n iterations with GC-stat deltas:
// allocations come from runtime.MemStats.Mallocs the way
// testing.AllocsPerRun counts them. The warm-up runs under the same
// GOMAXPROCS(1) as the window: a sync.Pool keeps each P's last Put in a
// slot no other P can take from, so a buffer the warm-up returned on
// another P would be allocated again inside the window.
func measureTick(level string, warmup, n int, fn func(i int) error) (TickBenchRow, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for i := 0; i < warmup; i++ {
		if err := fn(i); err != nil {
			return TickBenchRow{}, fmt.Errorf("hierctl: tick bench %s warmup: %w", level, err)
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(warmup + i); err != nil {
			return TickBenchRow{}, fmt.Errorf("hierctl: tick bench %s: %w", level, err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return TickBenchRow{
		Level:             level,
		Decisions:         n,
		NsPerDecision:     float64(elapsed.Nanoseconds()) / float64(n),
		BytesPerDecision:  math.Round(float64(after.TotalAlloc-before.TotalAlloc) / float64(n)),
		AllocsPerDecision: math.Round(float64(after.Mallocs-before.Mallocs) / float64(n)),
	}, nil
}

// tickGMapConfig is the learning grid behind the L1/table rows: coarse
// enough that the harness spends its time in decisions, not offline
// learning. The grid only changes which averages the cells hold — the
// candidate machinery and probe costs being measured are grid-independent.
func tickGMapConfig() controller.GMapConfig {
	return controller.GMapConfig{
		QMax: 200, QStep: 25,
		LambdaMax: 120, LambdaStep: 15,
		CMin: 0.014, CMax: 0.022, CStep: 0.004,
		SubSteps: 2,
	}
}

// learnTickGMaps learns abstraction maps for the first n catalogue
// computers (C1..Cn) on the tick grid.
func learnTickGMaps(n int) ([]*controller.GMap, error) {
	l0cfg := controller.DefaultL0Config()
	l0cfg.Horizon = 2 // learning sweep cost only; the maps stay §4.2-shaped
	gmaps := make([]*controller.GMap, n)
	for i := range gmaps {
		spec, err := cluster.StandardComputer(i, fmt.Sprintf("C%d", i+1))
		if err != nil {
			return nil, err
		}
		gmaps[i], err = controller.LearnGMap(l0cfg, spec, tickGMapConfig())
		if err != nil {
			return nil, err
		}
	}
	return gmaps, nil
}

// The driveTick* helpers set the i-th tick's observation into the
// caller's buffers and run one decision in the caller's Scratch.

func driveTickL0(l0 *controller.L0, sc *controller.Scratch, lambda []float64, i int) error {
	lam := 40 + 30*math.Sin(float64(i)/9)
	lambda[0], lambda[1], lambda[2] = lam, lam+2, lam+4
	_, err := l0.Decide(sc, float64((i*7)%200), lambda, 8, 0.0175)
	return err
}

// driveTickL1's on is the previous decision's Alpha (nil: all on).
func driveTickL1(l1 *controller.L1, sc *controller.Scratch, queues []float64, on, avail []bool, i int) (controller.L1Decision, error) {
	lam := 60 + 40*math.Sin(float64(i)/9)
	for j := range queues {
		queues[j] = float64((i * (3 + 2*j)) % 80)
	}
	return l1.Decide(sc, controller.L1Observation{
		QueueLens: queues, On: on, LambdaHat: lam, Delta: 8, CHat: 0.0175, Available: avail,
	})
}

func driveTickL2(l2 *controller.L2, sc *controller.Scratch, qavg, chat []float64, avail []bool, i int) error {
	lam := 200 + 100*math.Sin(float64(i)/9)
	for j := range qavg {
		qavg[j] = float64((i * (3 + 2*j)) % 40)
	}
	_, err := l2.Decide(sc, controller.L2Observation{
		QAvg: qavg, LambdaHat: lam, Delta: 20, CHat: chat, Available: avail,
	})
	return err
}

func driveTickProbe(g *controller.GMap, scratch []float64, i int) error {
	_, _, _, _, err := g.EvaluateInto(scratch, float64(i%200), float64(i%100), 0.0175)
	return err
}

// tickBinCounts is the bin rows' arrival-count series, cycled: rising,
// falling, near-empty and near-peak bins. A constant count would hide any
// buffer that is sized to the current bin instead of the peak one.
var tickBinCounts = []float64{400, 620, 12, 900, 150, 5, 480, 760, 30, 240, 880, 9, 330, 560, 700, 60}

func driveTickBin(sess *core.Session, i int) error {
	_, err := sess.ObserveBin(tickBinCounts[i%len(tickBinCounts)])
	return err
}

// newTickBinSession opens a streaming session for one bench tenant the
// way the fleet does, minus the fleet.
func newTickBinSession(tc fleet.TenantConfig) (*core.Session, error) {
	mgr, err := core.NewManager(tc.Spec, tc.Core)
	if err != nil {
		return nil, err
	}
	store, err := NewStore(tc.StoreSeed, tc.Store)
	if err != nil {
		return nil, err
	}
	return mgr.NewSession(store, core.SessionConfig{BinSeconds: tc.BinSeconds})
}

// RunTickBench measures the steady-state decision tick of every level of
// the hierarchy — L0 banded lookahead, L1 bounded (α, γ) search, L2
// simplex enumeration, the abstraction-map probe behind them, and the
// fleet's multi-tenant stepping throughput — and reports ns, bytes and
// allocations per decision. decisions sets the measured iteration count
// per row; tenants the fleet row's tenant count (a multiple of 4 keeps
// the shard load even). The workload mirrors the §4.3 runs: diurnal
// arrival forecasts with the uncertainty band, sweeping queue lengths.
func RunTickBench(decisions, tenants int) (TickBenchSnapshot, error) {
	if decisions < 1 {
		return TickBenchSnapshot{}, fmt.Errorf("hierctl: tick bench needs >= 1 decision, got %d", decisions)
	}
	if tenants < 1 {
		return TickBenchSnapshot{}, fmt.Errorf("hierctl: tick bench needs >= 1 tenant, got %d", tenants)
	}
	names := []string{"C1", "C2", "C3", "C4"}
	snap := TickBenchSnapshot{Computers: names, Decisions: decisions, Tenants: tenants}
	const warmup = 24
	// One Scratch for the three decide rows, as one fleet shard's serves
	// every level of its tenants.
	sc := new(controller.Scratch)

	// L0: the paper's C4 under the default §4.3 configuration.
	c4, err := cluster.StandardComputer(3, "C4")
	if err != nil {
		return TickBenchSnapshot{}, err
	}
	l0, err := controller.NewL0(controller.DefaultL0Config(), c4)
	if err != nil {
		return TickBenchSnapshot{}, err
	}
	lambda := make([]float64, 3)
	row, err := measureTick("L0-decide", warmup, decisions, func(i int) error {
		return driveTickL0(l0, sc, lambda, i)
	})
	if err != nil {
		return TickBenchSnapshot{}, err
	}
	snap.Rows = append(snap.Rows, row)

	// L1 over the C1..C4 abstraction maps (learned on the tick grid).
	gmaps, err := learnTickGMaps(len(names))
	if err != nil {
		return TickBenchSnapshot{}, err
	}
	l1, err := controller.NewL1(controller.DefaultL1Config(), gmaps)
	if err != nil {
		return TickBenchSnapshot{}, err
	}
	queues := make([]float64, len(names))
	avail := make([]bool, len(names))
	for j := range avail {
		avail[j] = true
	}
	var on []bool
	row, err = measureTick("L1-decide", warmup, decisions, func(i int) error {
		dec, err := driveTickL1(l1, sc, queues, on, avail, i)
		on = dec.Alpha
		return err
	})
	if err != nil {
		return TickBenchSnapshot{}, err
	}
	snap.Rows = append(snap.Rows, row)

	// L2 over a module cost tree fitted from the learned maps.
	l0cfg := controller.DefaultL0Config()
	l0cfg.Horizon = 2
	tree, err := controller.LearnModuleTree(l0cfg, controller.DefaultL1Config(), gmaps, controller.DefaultModuleSimConfig())
	if err != nil {
		return TickBenchSnapshot{}, err
	}
	jts := make([]controller.JTilde, 4)
	for i := range jts {
		jts[i] = tree
	}
	l2, err := controller.NewL2(controller.DefaultL2Config(), jts)
	if err != nil {
		return TickBenchSnapshot{}, err
	}
	qavg := make([]float64, 4)
	chat := []float64{0.0175, 0.0175, 0.0175, 0.0175}
	l2avail := []bool{true, true, true, true}
	row, err = measureTick("L2-decide", warmup, decisions, func(i int) error {
		return driveTickL2(l2, sc, qavg, chat, l2avail, i)
	})
	if err != nil {
		return TickBenchSnapshot{}, err
	}
	snap.Rows = append(snap.Rows, row)

	// The abstraction-map probe behind every L1 evaluation: one packed
	// hash lookup through caller-owned scratch.
	scratch := make([]float64, 4)
	probes := decisions * 64 // cheap enough to oversample
	row, err = measureTick("table-probe", warmup, probes, func(i int) error {
		return driveTickProbe(gmaps[0], scratch, i)
	})
	if err != nil {
		return TickBenchSnapshot{}, err
	}
	snap.Rows = append(snap.Rows, row)

	// One whole observation bin per tenant shape, under the varying
	// count series; the warm-up is two passes over it, so the feed
	// buffers and the plant's queues have met their peaks.
	for _, shape := range []struct {
		level  string
		config func(int64) (fleet.TenantConfig, error)
	}{{"bin-scale", fleetScaleTenantConfig}, {"bin-depth", benchTenantConfig}} {
		tc, err := shape.config(1)
		if err != nil {
			return TickBenchSnapshot{}, err
		}
		sess, err := newTickBinSession(tc)
		if err != nil {
			return TickBenchSnapshot{}, err
		}
		row, err = measureTick(shape.level, 2*len(tickBinCounts), decisions, func(i int) error {
			return driveTickBin(sess, i)
		})
		if err != nil {
			return TickBenchSnapshot{}, err
		}
		snap.Rows = append(snap.Rows, row)
	}

	// Fleet throughput: tenants stepping concurrently, one bin per
	// Observe. Byte/alloc columns are -1 by design (see TickBenchRow).
	fleetRow, err := runFleetTick(tenants, decisions)
	if err != nil {
		return TickBenchSnapshot{}, err
	}
	snap.Rows = append(snap.Rows, fleetRow)
	return snap, nil
}

// benchTenantShape is the tenant both fleet benchmarks host: one module
// under a coarse learning grid, a small object store sized to it
// (objects, a tenth of them popular) and 30 s bins; the fleet's artifact
// store makes the first tenant learn and the identical-hardware rest share.
// The shapes differ only in depth: the module, the L0 lookahead horizon
// and the L1/L2 periods.
func benchTenantShape(seed int64, module cluster.ModuleSpec, objects, l0Horizon int, l1Period, l2Period float64) fleet.TenantConfig {
	storeCfg := workload.DefaultStoreConfig()
	storeCfg.Objects = objects
	storeCfg.PopularCount = objects / 10

	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Parallelism = 1 // shards provide the parallelism, not the tenants
	cfg.RecordFrequencies = false
	cfg.L0.Horizon = l0Horizon
	cfg.L1.PeriodSeconds = l1Period
	cfg.L2.PeriodSeconds = l2Period
	cfg.GMap = controller.GMapConfig{
		QMax: 100, QStep: 50,
		LambdaMax: 100, LambdaStep: 50,
		CMin: 0.016, CMax: 0.02, CStep: 0.004,
		SubSteps: 2,
	}
	cfg.ModuleSim = controller.ModuleSimConfig{
		QLevels:      []float64{0, 50},
		LambdaLevels: []float64{0, 30, 60, 120, 200},
		CLevels:      []float64{0.018},
		Tree:         approx.TreeConfig{MaxDepth: 6, MinLeaf: 1},
	}
	return fleet.TenantConfig{
		Spec:       cluster.Spec{Modules: []cluster.ModuleSpec{module}},
		Core:       cfg,
		Store:      storeCfg,
		StoreSeed:  seed,
		BinSeconds: 30,
	}
}

// benchTenantConfig is the tick bench's fleet-row tenant — the per-tenant
// depth benchmark: the §4.3 standard module, a horizon-2 L0 and the
// paper's 120 s L1/L2 cadence.
func benchTenantConfig(seed int64) (fleet.TenantConfig, error) {
	module, err := cluster.StandardModule("M1", "M1")
	if err != nil {
		return fleet.TenantConfig{}, err
	}
	return benchTenantShape(seed, module, 500, 2, 120, 120), nil
}

// runFleetTick steps `tenants` concurrent tenant hierarchies `bins` times
// each and reports tenant-ticks/sec.
func runFleetTick(tenants, bins int) (TickBenchRow, error) {
	f := fleet.New(fleet.Config{})
	defer f.Close()
	ids := make([]string, tenants)
	for i := range ids {
		tc, err := benchTenantConfig(int64(i + 1))
		if err != nil {
			return TickBenchRow{}, err
		}
		ids[i] = fmt.Sprintf("tick-%03d", i)
		if err := f.CreateTenant(ids[i], tc); err != nil {
			return TickBenchRow{}, err
		}
	}
	start := time.Now()
	err := par.For(runtime.GOMAXPROCS(0), tenants, func(i int) error {
		for n := 0; n < bins; n++ {
			if _, err := f.Observe(ids[i], 400); err != nil {
				return err
			}
		}
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return TickBenchRow{}, err
	}
	ticks := tenants * bins
	return TickBenchRow{
		Level:             fmt.Sprintf("fleet-%d", tenants),
		Decisions:         ticks,
		NsPerDecision:     float64(elapsed.Nanoseconds()) / float64(ticks),
		BytesPerDecision:  -1,
		AllocsPerDecision: -1,
		TenantTicksPerSec: float64(ticks) / elapsed.Seconds(),
	}, nil
}
