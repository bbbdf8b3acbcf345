package core

import (
	"fmt"
	"runtime"
	"testing"

	"hierctl/internal/cluster"
	"hierctl/internal/obs"
	"hierctl/internal/race"
)

// TestSessionObserveBinSteadyStateAllocs pins what one observation bin
// allocates once the session is warm, on a single-module and a 4-module
// hierarchy, with the flight recorder on and off, under a varying count
// series (a constant one hides buffers sized to the current bin):
//
//   - StepBin — feed, L2/L1/L0 decide, dispatch, plant advance, harvest,
//     observe — allocates nothing: the controllers decide into their own
//     buffers (controller/alloc_test.go pins each at zero) and the run
//     copies what it keeps into storage it owns;
//   - ObserveBin adds exactly the returned decision, which owns its slices:
//     the Modules slice and one backing array per element type (floats,
//     bools, ints), whatever the module count.
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
				const perDecision = 4
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
				if race.Enabled {
					t.Skip("the race detector's pools drop Puts; the request batch and queue blocks are pooled")
				}
				if got := testing.AllocsPerRun(20, stepOnly); got != 0 {
					t.Errorf("StepBin: %v allocs per %d-bin pass, want 0", got, len(series))
				}
				want := perDecision * len(series)
				if got := testing.AllocsPerRun(20, withDecision); got != float64(want) {
					t.Errorf("ObserveBin: %v allocs per %d-bin pass, want %d (%d per returned decision)", got, len(series), want, perDecision)
				}
			})
		}
	}
}

// TestSessionMemoryFollowsBacklog is the ratchet pin: one bin at the
// largest count a tenant accepts (10⁶ requests, a 16 MB batch and a
// backlog of as much again) must cost memory only while it lasts. Light
// bins then run until the plant drains. After every bin the live heap
// exceeds its pre-spike value by no more than the queue blocks the current
// backlog needs, ⌈q/BlockJobs⌉+1 per computer, plus 1 MB — so the session
// holds no request batch between bins and no computer a block past its
// backlog — and once drained it is back within 1 MB. Before the pooled
// batch and block queues, the feed kept the spike's batch and each
// computer a ring at its backlog's peak, for as long as the session lived.
func TestSessionMemoryFollowsBacklog(t *testing.T) {
	const spike = 1e6 // fleet's maxBinCount
	// A block is BlockJobs 16-byte jobs and the link: one 4096-byte size class.
	const blockBytes = 16 * (cluster.BlockJobs + 1)
	cfg := fastConfig()
	cfg.Parallelism = 1
	cfg.RecordFrequencies = false
	mgr, err := NewManager(cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 4)}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := mgr.NewSession(testStore(t), SessionConfig{BinSeconds: 30})
	if err != nil {
		t.Fatal(err)
	}
	plant := sess.r.plant
	backlog := func() (jobs, blocks int) {
		for i := 0; i < plant.Modules(); i++ {
			for j := 0; j < plant.ModuleSize(i); j++ {
				if q := plant.Computer(i, j).QueueLen(); q > 0 {
					jobs += q
					blocks += (q+cluster.BlockJobs-1)/cluster.BlockJobs + 1
				}
			}
		}
		return jobs, blocks
	}
	const light = 40
	for i := 0; i < 32; i++ {
		if err := sess.StepBin(light); err != nil {
			t.Fatal(err)
		}
	}
	before := liveHeap()
	step := func(count float64) (jobs int) {
		t.Helper()
		if err := sess.StepBin(count); err != nil {
			t.Fatal(err)
		}
		jobs, blocks := backlog()
		if live, most := liveHeap(), before+uint64(blocks*blockBytes)+1<<20; live > most {
			t.Fatalf("bin %d: live heap %d B with %d jobs queued, want <= %d B (pre-spike %d B + %d blocks + 1 MB)",
				sess.h.Bins()-1, live, jobs, most, before, blocks)
		}
		return jobs
	}
	peak := step(spike)
	bins := 0
	for left := peak; left > 0; bins++ {
		if bins == 2000 {
			t.Fatalf("backlog of %d jobs left after %d light bins", left, bins)
		}
		left = step(light)
	}
	after := liveHeap()
	runtime.KeepAlive(sess) // measured alive, or the collector frees what it holds
	if grew := int64(after) - int64(before); grew > 1<<20 {
		t.Fatalf("after a %g-request bin drained (%d jobs queued at its end, %d bins to drain) the live heap is %d B above its pre-spike %d B, want <= 1 MB",
			spike, peak, bins, grew, before)
	}
	t.Logf("spike queued %d jobs, drained in %d bins; live heap %d B before, %d B after", peak, bins, before, after)
}

// liveHeap is HeapAlloc after two forced collections: the first moves
// idle pooled buffers to the pools' victim caches, the second frees them.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
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
