package fleet

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"hierctl/internal/approx"
	"hierctl/internal/cluster"
	"hierctl/internal/controller"
	"hierctl/internal/core"
	"hierctl/internal/des"
	"hierctl/internal/power"
	"hierctl/internal/series"
	"hierctl/internal/workload"
)

// fastCore mirrors the coarse-grid test configuration the core package
// uses: the whole pipeline runs, just with small learning grids.
func fastCore() core.Config {
	cfg := core.DefaultConfig()
	cfg.L0.Horizon = 2
	cfg.GMap = controller.GMapConfig{
		QMax: 200, QStep: 25,
		LambdaMax: 150, LambdaStep: 15,
		CMin: 0.014, CMax: 0.022, CStep: 0.004,
		SubSteps: 2,
	}
	cfg.ModuleSim = controller.ModuleSimConfig{
		QLevels:      []float64{0, 50},
		LambdaLevels: []float64{0, 30, 60, 120, 200},
		CLevels:      []float64{0.018},
		Tree:         approx.TreeConfig{MaxDepth: 6, MinLeaf: 1},
	}
	cfg.DrainSeconds = 120
	return cfg
}

func testComputer(name string) cluster.ComputerSpec {
	return cluster.ComputerSpec{
		Name:             name,
		FrequenciesHz:    []float64{0.5e9, 1e9, 1.5e9, 2e9},
		SpeedFactor:      1,
		Power:            power.DefaultModel(),
		BootDelaySeconds: 120,
	}
}

func moduleOf(name string, n int) cluster.ModuleSpec {
	ms := cluster.ModuleSpec{Name: name}
	for j := 0; j < n; j++ {
		ms.Computers = append(ms.Computers, testComputer(name+"-c"+string(rune('0'+j))))
	}
	return ms
}

func testStoreConfig() workload.StoreConfig {
	cfg := workload.DefaultStoreConfig()
	cfg.Objects = 500
	cfg.PopularCount = 50
	return cfg
}

func seriesIdentical(t *testing.T, name string, a, b *series.Series) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: nil mismatch", name)
	}
	if a == nil {
		return
	}
	if a.Len() != b.Len() {
		t.Fatalf("%s: length %d vs %d", name, a.Len(), b.Len())
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("%s: value %d diverged: %v vs %v", name, i, a.Values[i], b.Values[i])
		}
	}
}

// recordsIdentical compares two records of one mode: every scalar, and
// every series (all nil when both sides streamed).
func recordsIdentical(t *testing.T, batch, online *core.Record) {
	t.Helper()
	scalarsIdentical(t, batch, online)
	seriesIdentical(t, "Trace", batch.Trace, online.Trace)
	seriesIdentical(t, "PredictedL1", batch.PredictedL1, online.PredictedL1)
	seriesIdentical(t, "ActualL1", batch.ActualL1, online.ActualL1)
	seriesIdentical(t, "Operational", batch.Operational, online.Operational)
	seriesIdentical(t, "ResponseMean", batch.ResponseMean, online.ResponseMean)
	if len(batch.GammaModules) != len(online.GammaModules) {
		t.Fatalf("gamma series count %d vs %d", len(batch.GammaModules), len(online.GammaModules))
	}
	for i := range batch.GammaModules {
		seriesIdentical(t, "GammaModules", batch.GammaModules[i], online.GammaModules[i])
	}
	if len(batch.FreqByComputer) != len(online.FreqByComputer) {
		t.Fatalf("frequency series count %d vs %d", len(batch.FreqByComputer), len(online.FreqByComputer))
	}
	for name, s := range batch.FreqByComputer {
		seriesIdentical(t, "FreqByComputer["+name+"]", s, online.FreqByComputer[name])
	}
}

// scalarsIdentical compares everything a record carries besides its
// series — all a tenant's (streaming) record has.
func scalarsIdentical(t *testing.T, batch, online *core.Record) {
	t.Helper()
	if batch.Completed != online.Completed || batch.Dropped != online.Dropped {
		t.Errorf("requests diverged: (%d, %d) vs (%d, %d)", batch.Completed, batch.Dropped, online.Completed, online.Dropped)
	}
	if batch.Energy != online.Energy {
		t.Errorf("energy diverged: %v vs %v", batch.Energy, online.Energy)
	}
	if batch.Switches != online.Switches || batch.Misroutes != online.Misroutes {
		t.Error("switches/misroutes diverged")
	}
	if batch.ViolationFrac != online.ViolationFrac {
		t.Errorf("violation fraction diverged: %v vs %v", batch.ViolationFrac, online.ViolationFrac)
	}
	if batch.MeanResponse() != online.MeanResponse() {
		t.Errorf("mean response diverged: %v vs %v", batch.MeanResponse(), online.MeanResponse())
	}
	if batch.ResponseP50 != online.ResponseP50 || batch.ResponseP95 != online.ResponseP95 ||
		batch.ResponseP99 != online.ResponseP99 || batch.ResponseMax != online.ResponseMax {
		t.Error("latency percentiles diverged")
	}
	if batch.L0Explored != online.L0Explored || batch.L1Explored != online.L1Explored || batch.L2Explored != online.L2Explored {
		t.Error("explored counts diverged")
	}
	if batch.L0Decisions != online.L0Decisions || batch.L1Decisions != online.L1Decisions || batch.L2Decisions != online.L2Decisions {
		t.Error("decision counts diverged")
	}
}

// TestFleetOnlineMatchesBatchRun is the control plane's equivalence pin:
// a tenant stepped online through the fleet over the §4.3 synthetic trace
// takes, bin for bin, the decisions of the batch run on the same trace and
// seed (the trace-mode session Manager.Run is) — α, γ, frequencies, mean
// response and operational count — and closes with identical totals. The
// tenant never sees the trace — only the streamed counts and the same
// calibration prefix the batch engine tunes on — and keeps no series.
func TestFleetOnlineMatchesBatchRun(t *testing.T) {
	syn := workload.DefaultSyntheticConfig()
	syn.Seed = 1
	full, err := workload.Synthetic(syn)
	if err != nil {
		t.Fatal(err)
	}
	trace := full.Slice(0, 90) // §4.3 shape, trimmed to keep the test quick
	cfg := fastCore()
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 4)}}

	// One TenantConfig builds both sides: the batch session's store comes
	// from the stream newTenant derives the tenant's from.
	tc := TenantConfig{
		Spec:        spec,
		Core:        cfg,
		Store:       testStoreConfig(),
		StoreSeed:   3,
		BinSeconds:  trace.Step,
		Start:       trace.Start,
		Calibration: trace.Values[:int(float64(trace.Len())*core.TunePrefixFrac)],
	}
	batchMgr, err := core.NewManager(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batchStore, err := workload.NewStore(des.NewStream(tc.StoreSeed, "store"), tc.Store)
	if err != nil {
		t.Fatal(err)
	}
	batchSess, err := batchMgr.NewSession(batchStore, core.SessionConfig{Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]core.BinDecision, 0, trace.Len())
	for _, count := range trace.Values {
		dec, err := batchSess.ObserveBin(count)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, dec)
	}
	batch, err := batchSess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if batch.ResponseMean.Len() == 0 || batch.Operational.Len() == 0 || batch.Trace != trace {
		t.Fatal("trace-mode session recorded no series")
	}

	f := New(Config{Shards: 4})
	defer f.Close()
	if err := f.CreateTenant("t1", tc); err != nil {
		t.Fatal(err)
	}
	for bin, count := range trace.Values {
		got, err := f.Observe("t1", count)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[bin]) {
			t.Fatalf("bin %d decision diverged:\nbatch  %+v\nonline %+v", bin, want[bin], got)
		}
	}
	st, err := f.State("t1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Bins != trace.Len() {
		t.Fatalf("tenant ingested %d bins, want %d", st.Bins, trace.Len())
	}
	if st.LastDecision == nil {
		t.Fatal("no last decision recorded")
	}
	online, err := f.CloseTenant("t1")
	if err != nil {
		t.Fatal(err)
	}
	scalarsIdentical(t, batch, online)
	if online.Trace != nil || online.PredictedL1 != nil || online.ActualL1 != nil || online.Operational != nil ||
		online.ResponseMean != nil || online.GammaModules != nil || online.FreqByComputer != nil {
		t.Errorf("tenant recorded series: %+v", online)
	}
	if _, err := f.State("t1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("closed tenant still visible: %v", err)
	}
}

// TestSnapshotRestoreDecisionsBitIdentical drives the persistence
// round-trip through the fleet snapshot path: snapshot a running tenant,
// restore into a fresh fleet, and the next K decisions must be
// bit-identical. The multi-module tenant exercises both artifact kinds
// (abstraction maps and module trees), which the restore learns afresh.
func TestSnapshotRestoreDecisionsBitIdentical(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{
		moduleOf("M1", 2), moduleOf("M2", 2),
	}}
	tc := TenantConfig{
		Spec:       spec,
		Core:       fastCore(),
		Store:      testStoreConfig(),
		StoreSeed:  5,
		BinSeconds: 30,
	}
	counts := func(i int) float64 { return 800 + 500*math.Sin(float64(i)/4) }

	f1 := New(Config{Shards: 2})
	defer f1.Close()
	if err := f1.CreateTenant("a", tc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := f1.Observe("a", counts(i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := f1.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	f2 := New(Config{Shards: 2})
	defer f2.Close()
	if err := f2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	st, err := f2.State("a")
	if err != nil {
		t.Fatal(err)
	}
	if st.Bins != 12 {
		t.Fatalf("restored tenant at %d bins, want 12", st.Bins)
	}
	if st.LastDecision == nil {
		t.Fatal("restored tenant lost its last decision")
	}

	const K = 8
	for i := 12; i < 12+K; i++ {
		want, err := f1.Observe("a", counts(i))
		if err != nil {
			t.Fatal(err)
		}
		got, err := f2.Observe("a", counts(i))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("decision %d diverged after restore:\noriginal %+v\nrestored %+v", i, want, got)
		}
	}

	// The final records agree too: replay + continuation is the same run.
	a, err := f1.CloseTenant("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := f2.CloseTenant("a")
	if err != nil {
		t.Fatal(err)
	}
	recordsIdentical(t, a, b)
}

func TestFleetTenantLifecycleErrors(t *testing.T) {
	f := New(Config{Shards: 2})
	defer f.Close()
	tc := TenantConfig{
		Spec:       cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2)}},
		Core:       fastCore(),
		Store:      testStoreConfig(),
		StoreSeed:  1,
		BinSeconds: 30,
	}
	if err := f.CreateTenant("", tc); err == nil {
		t.Error("empty id: want error")
	}
	if _, err := f.Observe("ghost", 100); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown tenant: got %v, want ErrNotFound", err)
	}
	if err := f.CreateTenant("x", tc); err != nil {
		t.Fatal(err)
	}
	if err := f.CreateTenant("x", tc); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate id: got %v, want ErrExists", err)
	}
	bad := tc
	bad.BinSeconds = 45 // not a multiple of T_L0
	if err := f.CreateTenant("y", bad); err == nil {
		t.Error("misaligned bin width: want error")
	}
	if got := f.Tenants(); len(got) != 1 || got[0] != "x" {
		t.Errorf("tenants = %v, want [x]", got)
	}
	if _, err := f.Observe("x", 200); err != nil {
		t.Fatal(err)
	}
	stats := f.Stats()
	if stats.Tenants != 1 || stats.Observations != 1 || stats.Ticks != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestStatsCountCleanBins pins what the fleet's bin counters count: one
// observation and the tenant's T_L0 periods per bin that applied cleanly,
// and one panic per quarantine. A bin refused before it began (an unknown
// tenant, a bad count, a fault before the bin) and one that halted inside
// the bin count toward neither, and the entry's later bins are not tried.
func TestStatsCountCleanBins(t *testing.T) {
	for _, tc := range []struct {
		name    string
		halt    string // tenant halted inside its bin 1
		entries []BatchEntry
		applied []int
		panics  int64
	}{
		{name: "clean", entries: []BatchEntry{
			{Tenant: "a", Counts: []float64{100, 200, 300}},
			{Tenant: "b", Counts: []float64{150, 250}},
			{Tenant: "a", Counts: []float64{120}},
		}, applied: []int{3, 2, 1}},
		{name: "unknown tenant", entries: []BatchEntry{
			{Tenant: "ghost", Counts: []float64{100, 100}},
			{Tenant: "b", Counts: []float64{100}},
		}, applied: []int{0, 1}},
		{name: "bad second count", entries: []BatchEntry{
			{Tenant: "b", Counts: []float64{100, -1, 100}},
			{Tenant: "a", Counts: []float64{100, math.NaN()}},
		}, applied: []int{1, 1}},
		{name: "fault before the bin", entries: []BatchEntry{
			{Tenant: "b", Counts: []float64{100, panicCount, 100}},
			{Tenant: "a", Counts: []float64{panicCount}},
			{Tenant: "a", Counts: []float64{100}},
		}, applied: []int{1, 0, 0}, panics: 2},
		{name: "halt inside the bin", halt: "b", entries: []BatchEntry{
			{Tenant: "b", Counts: []float64{100, 100, 100}},
			{Tenant: "a", Counts: []float64{100, 100}},
		}, applied: []int{1, 2}, panics: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := panicFleet(t, 2)
			for id, seconds := range map[string]float64{"a": 30, "b": 60} {
				cfg := quarantineTenantConfig()
				cfg.BinSeconds = seconds
				if err := f.CreateTenant(id, cfg); err != nil {
					t.Fatal(err)
				}
			}
			if tc.halt != "" {
				haltAfterBin(t, f, tc.halt, 1)
			}
			sub := map[string]int64{"a": 1, "b": 2}
			var observations, ticks int64
			for i, e := range tc.entries {
				res, err := f.ObserveBatch([]BatchEntry{e})
				if err != nil {
					t.Fatal(err)
				}
				if res[0].Applied != tc.applied[i] {
					t.Fatalf("entry %d: %d bins applied (%v), want %d", i, res[0].Applied, res[0].Err, tc.applied[i])
				}
				observations += int64(res[0].Applied)
				ticks += int64(res[0].Applied) * sub[e.Tenant]
			}
			st := f.Stats()
			if st.Observations != observations || st.Ticks != ticks || st.Panics != tc.panics || st.Quarantined != int(tc.panics) {
				t.Errorf("%d observations, %d ticks, %d panics, %d quarantined; want %d, %d, %d, %d",
					st.Observations, st.Ticks, st.Panics, st.Quarantined, observations, ticks, tc.panics, tc.panics)
			}
		})
	}
}

// TestFleetCloseIsPrompt pins the shutdown path: Close returns quickly
// and everything afterwards reports ErrClosed.
func TestFleetCloseIsPrompt(t *testing.T) {
	f := New(Config{Shards: 4})
	tc := TenantConfig{
		Spec:       cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2)}},
		Core:       fastCore(),
		Store:      testStoreConfig(),
		StoreSeed:  1,
		BinSeconds: 30,
	}
	if err := f.CreateTenant("x", tc); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	f.Close()
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("Close took %v", d)
	}
	if _, err := f.Observe("x", 100); !errors.Is(err, ErrClosed) {
		t.Errorf("observe after close: got %v, want ErrClosed", err)
	}
	if err := f.CreateTenant("y", tc); !errors.Is(err, ErrClosed) {
		t.Errorf("create after close: got %v, want ErrClosed", err)
	}
	if err := f.Snapshot(&bytes.Buffer{}); err == nil {
		t.Error("snapshot after close: want error")
	}
}

// TestFleetConcurrentTenantsDeterministic steps many tenants from many
// goroutines and checks each tenant's outcome equals its solo replay —
// shard scheduling must never leak state across tenants.
func TestFleetConcurrentTenantsDeterministic(t *testing.T) {
	const n = 6
	cfg := fastCore()
	cfg.Parallelism = 1
	cfg.RecordFrequencies = false
	mkCfg := func(i int) TenantConfig {
		return TenantConfig{
			Spec:       cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2)}},
			Core:       cfg,
			Store:      testStoreConfig(),
			StoreSeed:  int64(i + 1),
			BinSeconds: 30,
		}
	}
	bins := 10
	counts := func(tenant, bin int) float64 { return 300 + 100*float64((tenant+bin)%4) }

	f := New(Config{Shards: 3})
	defer f.Close()
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = string(rune('a' + i))
		if err := f.CreateTenant(ids[i], mkCfg(i)); err != nil {
			t.Fatal(err)
		}
	}
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			for b := 0; b < bins; b++ {
				if _, err := f.Observe(ids[i], counts(i, b)); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		got, err := f.CloseTenant(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		// Solo replay of the same tenant.
		solo := New(Config{Shards: 1})
		if err := solo.CreateTenant("solo", mkCfg(i)); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < bins; b++ {
			if _, err := solo.Observe("solo", counts(i, b)); err != nil {
				t.Fatal(err)
			}
		}
		want, err := solo.CloseTenant("solo")
		solo.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got.Completed != want.Completed || got.Energy != want.Energy || got.Switches != want.Switches {
			t.Errorf("tenant %s diverged from solo replay: (%d, %v, %d) vs (%d, %v, %d)",
				ids[i], got.Completed, got.Energy, got.Switches, want.Completed, want.Energy, want.Switches)
		}
	}
}

// TestRestoreIsAllOrNothing: an id clash during restore must register
// none of the snapshot's tenants.
func TestRestoreIsAllOrNothing(t *testing.T) {
	tc := TenantConfig{
		Spec:       cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2)}},
		Core:       fastCore(),
		Store:      testStoreConfig(),
		StoreSeed:  1,
		BinSeconds: 30,
	}
	f1 := New(Config{Shards: 1})
	defer f1.Close()
	for _, id := range []string{"a", "b"} {
		if err := f1.CreateTenant(id, tc); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := f1.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	f2 := New(Config{Shards: 1})
	defer f2.Close()
	if err := f2.CreateTenant("b", tc); err != nil {
		t.Fatal(err)
	}
	if err := f2.Restore(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrExists) {
		t.Fatalf("restore over live id: got %v, want ErrExists", err)
	}
	if got := f2.Tenants(); len(got) != 1 || got[0] != "b" {
		t.Errorf("partial restore leaked tenants: %v, want [b]", got)
	}
}
