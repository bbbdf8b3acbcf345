package hierctl

import (
	"runtime"
	"testing"

	"hierctl/internal/series"
)

// The worker pools' contract: work fans out only between independent
// runs, sweep cells and learning tasks, each result lands in its own
// indexed slot, so a run's outputs are the same at any GOMAXPROCS. These
// tests pin a GOMAXPROCS=8 run against the sequential GOMAXPROCS=1 one,
// comparing everything a run records except wall-clock durations (which
// legitimately vary).

// atGOMAXPROCS runs fn once at GOMAXPROCS=1 and once at GOMAXPROCS=n and
// returns both results; the previous GOMAXPROCS comes back when the test
// ends. GOMAXPROCS is process-wide, so no test in this package calls
// t.Parallel.
func atGOMAXPROCS[T any](t *testing.T, n int, fn func() (T, error)) (seq, par T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	var err error
	if seq, err = fn(); err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(n)
	if par, err = fn(); err != nil {
		t.Fatal(err)
	}
	return seq, par
}

func seriesEqual(t *testing.T, name string, a, b *series.Series) {
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

func assertRecordsIdentical(t *testing.T, seq, par *Record) {
	t.Helper()
	if seq.Completed != par.Completed || seq.Dropped != par.Dropped {
		t.Errorf("requests diverged: (%d, %d) vs (%d, %d)", seq.Completed, seq.Dropped, par.Completed, par.Dropped)
	}
	if seq.Energy != par.Energy {
		t.Errorf("energy diverged: %v vs %v", seq.Energy, par.Energy)
	}
	if seq.Switches != par.Switches || seq.Misroutes != par.Misroutes {
		t.Errorf("switches/misroutes diverged: (%d, %d) vs (%d, %d)", seq.Switches, seq.Misroutes, par.Switches, par.Misroutes)
	}
	if seq.ViolationFrac != par.ViolationFrac {
		t.Errorf("violation fraction diverged: %v vs %v", seq.ViolationFrac, par.ViolationFrac)
	}
	if seq.ResponseP50 != par.ResponseP50 || seq.ResponseP95 != par.ResponseP95 ||
		seq.ResponseP99 != par.ResponseP99 || seq.ResponseMax != par.ResponseMax {
		t.Error("latency percentiles diverged")
	}
	if seq.MeanResponse() != par.MeanResponse() {
		t.Errorf("mean response diverged: %v vs %v", seq.MeanResponse(), par.MeanResponse())
	}
	if seq.L0Explored != par.L0Explored || seq.L1Explored != par.L1Explored || seq.L2Explored != par.L2Explored {
		t.Errorf("explored counts diverged: (%d, %d, %d) vs (%d, %d, %d)",
			seq.L0Explored, seq.L1Explored, seq.L2Explored, par.L0Explored, par.L1Explored, par.L2Explored)
	}
	if seq.L0Decisions != par.L0Decisions || seq.L1Decisions != par.L1Decisions || seq.L2Decisions != par.L2Decisions {
		t.Error("decision counts diverged")
	}
	seriesEqual(t, "PredictedL1", seq.PredictedL1, par.PredictedL1)
	seriesEqual(t, "ActualL1", seq.ActualL1, par.ActualL1)
	seriesEqual(t, "Operational", seq.Operational, par.Operational)
	seriesEqual(t, "ResponseMean", seq.ResponseMean, par.ResponseMean)
	if len(seq.GammaModules) != len(par.GammaModules) {
		t.Fatalf("gamma series count %d vs %d", len(seq.GammaModules), len(par.GammaModules))
	}
	for i := range seq.GammaModules {
		seriesEqual(t, "GammaModules", seq.GammaModules[i], par.GammaModules[i])
	}
	if len(seq.FreqByComputer) != len(par.FreqByComputer) {
		t.Fatalf("frequency series count %d vs %d", len(seq.FreqByComputer), len(par.FreqByComputer))
	}
	for name, s := range seq.FreqByComputer {
		seriesEqual(t, "FreqByComputer["+name+"]", s, par.FreqByComputer[name])
	}
}

// TestParallelClusterRunMatchesSequential pins the multi-module §5.2 run —
// parallel learning, then the L2 and per-module L1 decisions on one
// goroutine — to the sequential run, record field by record field.
func TestParallelClusterRunMatchesSequential(t *testing.T) {
	seq, par8 := atGOMAXPROCS(t, 8, func() (*Record, error) { return RunFig6Fig7(fastOpts()) })
	assertRecordsIdentical(t, seq, par8)
}

// TestParallelScalabilityMatchesSequential pins the fanned-out EXT3 sweep
// (parallel sizes, each centralized decision on one goroutine) to the
// sequential sweep.
func TestParallelScalabilityMatchesSequential(t *testing.T) {
	opts := fastOpts()
	opts.Scale = 0.03
	seq, par8 := atGOMAXPROCS(t, 8, func() ([]ScalabilityRow, error) { return RunScalability([]int{4, 8}, opts) })
	if len(seq) != len(par8) {
		t.Fatalf("row count %d vs %d", len(seq), len(par8))
	}
	for i := range seq {
		s, p := seq[i], par8[i]
		if s.Controller != p.Controller || s.Computers != p.Computers {
			t.Fatalf("row %d: ordering diverged: %+v vs %+v", i, s, p)
		}
		if s.ExploredPerPeriod != p.ExploredPerPeriod {
			t.Errorf("row %d (%s n=%d): explored %v vs %v", i, s.Controller, s.Computers, s.ExploredPerPeriod, p.ExploredPerPeriod)
		}
		if s.MeanResponse != p.MeanResponse || s.Energy != p.Energy {
			t.Errorf("row %d (%s n=%d): quality diverged: (%v, %v) vs (%v, %v)",
				i, s.Controller, s.Computers, s.MeanResponse, s.Energy, p.MeanResponse, p.Energy)
		}
	}
}

// TestParallelEnergyComparisonMatchesSequential pins the fanned-out EXT1
// policy comparison to the sequential one (no time fields, so rows must be
// exactly equal).
func TestParallelEnergyComparisonMatchesSequential(t *testing.T) {
	opts := fastOpts()
	opts.Scale = 0.03
	seq, par8 := atGOMAXPROCS(t, 8, func() ([]EnergyRow, error) { return RunEnergyComparison(opts) })
	if len(seq) != len(par8) {
		t.Fatalf("row count %d vs %d", len(seq), len(par8))
	}
	for i := range seq {
		if seq[i] != par8[i] {
			t.Errorf("row %d diverged:\nseq %+v\npar %+v", i, seq[i], par8[i])
		}
	}
}

// TestParallelismValidation pins the one pool bound left in a
// configuration, Config.Parallelism: a negative value is rejected.
func TestParallelismValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = -2
	if err := cfg.Validate(); err == nil {
		t.Error("negative config parallelism: want error")
	}
}
