package core

import (
	"fmt"
	"testing"

	"hierctl/internal/cluster"
	"hierctl/internal/obs"
)

// TestSessionObserveBinSteadyStateAllocs pins what one observation bin
// allocates once the session is warm, on a single-module and a 4-module
// hierarchy, with the flight recorder on and off, under a varying count
// series (a constant one hides buffers sized to the current bin):
//
//   - StepBin — feed, L2/L1/L0 decide, dispatch, plant advance, harvest,
//     observe — allocates only the controllers' sanctioned decision
//     copy-outs (two slices per L1 and per L2 decision, the budget
//     controller/alloc_test.go pins per decision);
//   - ObserveBin adds exactly the returned decision, which owns its slices:
//     the Modules slice, four slices per module, and the γ_i copy when an
//     L2 runs.
func TestSessionObserveBinSteadyStateAllocs(t *testing.T) {
	series := []float64{400, 620, 12, 900, 150, 5, 480, 760, 30, 240, 880, 9, 330, 560, 700, 60}
	shapes := []struct {
		name string
		spec cluster.Spec
	}{
		{"modules=1", cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 4)}}},
		{"modules=4", cluster.Spec{Modules: []cluster.ModuleSpec{
			moduleOf("M1", 2), moduleOf("M2", 2), moduleOf("M3", 2), moduleOf("M4", 2),
		}}},
	}
	for _, shape := range shapes {
		for _, recorded := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/recorder=%v", shape.name, recorded), func(t *testing.T) {
				cfg := fastConfig()
				cfg.Parallelism = 1           // what every fleet tenant runs,
				cfg.RecordFrequencies = false // as is this
				mgr, err := NewManager(shape.spec, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if recorded {
					rec, err := obs.NewRecorder(512)
					if err != nil {
						t.Fatal(err)
					}
					mgr.SetRecorder(rec)
				}
				sess, err := mgr.NewSession(testStore(t), SessionConfig{BinSeconds: 30})
				if err != nil {
					t.Fatal(err)
				}
				modules := len(shape.spec.Modules)
				// One run is one pass over the series; the cadences divide
				// it, so every pass holds the same number of decisions.
				r := sess.r
				if len(series)%r.l1Every != 0 || len(series)%r.l2Every != 0 || r.sub != 1 {
					t.Fatalf("series length %d is not a multiple of the L1/L2 cadences %d/%d ticks", len(series), r.l1Every, r.l2Every)
				}
				copyOuts := 2 * modules * len(series) / r.l1Every
				perDecision := 1 + 4*modules
				if mgr.l2 != nil {
					copyOuts += 2 * len(series) / r.l2Every
					perDecision++
				}
				bin := 0
				pass := func(step func(float64) error) func() {
					return func() {
						for _, c := range series {
							if err := step(c * float64(modules)); err != nil {
								t.Fatal(err)
							}
							bin++
						}
					}
				}
				stepOnly := pass(sess.StepBin)
				withDecision := pass(func(c float64) error { _, err := sess.ObserveBin(c); return err })
				// The Record's series grow by amortized append (ROADMAP item
				// 3's, not the tick's): warm past 1024 bins, where a regrowth
				// is rare enough to vanish in AllocsPerRun's integer mean.
				for i := 0; i < 70; i++ {
					stepOnly()
				}
				if got := testing.AllocsPerRun(20, stepOnly); got != float64(copyOuts) {
					t.Errorf("StepBin: %v allocs per %d-bin pass, want the %d L1/L2 decision copy-outs", got, len(series), copyOuts)
				}
				want := copyOuts + perDecision*len(series)
				if got := testing.AllocsPerRun(20, withDecision); got != float64(want) {
					t.Errorf("ObserveBin: %v allocs per %d-bin pass, want %d (copy-outs + %d per returned decision)", got, len(series), want, perDecision)
				}
			})
		}
	}
}

// TestSessionDecisionOwnsItsSlices: the decision a session hands out must
// not alias the buffers the next bin rewrites.
func TestSessionDecisionOwnsItsSlices(t *testing.T) {
	cfg := fastConfig()
	cfg.Parallelism = 1
	mgr, err := NewManager(cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2), moduleOf("M2", 2)}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := mgr.NewSession(testStore(t), SessionConfig{BinSeconds: 30})
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.ObserveBin(600)
	if err != nil {
		t.Fatal(err)
	}
	held := sess.Decision()
	for i := range first.Modules {
		for j := range first.Modules[i].FreqIdx {
			first.Modules[i].FreqIdx[j] = -7
			first.Modules[i].Gamma[j] = -7
		}
	}
	if again := sess.Decision(); again.Modules[0].FreqIdx[0] == -7 || again.Modules[0].Gamma[0] == -7 {
		t.Fatal("writing a returned decision reached the session's own copy")
	}
	for i := 0; i < 8; i++ {
		if err := sess.StepBin(float64(40 + 300*i)); err != nil {
			t.Fatal(err)
		}
	}
	if held.Bin != 0 || held.Time != 30 {
		t.Fatalf("held decision moved to bin %d / t=%v", held.Bin, held.Time)
	}
	if now := sess.Decision(); now.Bin != 8 {
		t.Fatalf("Decision() after 9 bins reports bin %d, want 8", now.Bin)
	}
}
