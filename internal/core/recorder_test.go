package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hierctl/internal/cluster"
	"hierctl/internal/des"
	"hierctl/internal/obs"
	"hierctl/internal/workload"
)

// TestManagerRecorderEquivalence is the recorder equivalence suite: the
// flight recorder must be observe-only. Randomized over the scenario
// registry and seeds, a run with the recorder attached must reproduce the
// unrecorded run bit-for-bit — decisions, QoS accounting, energy, explored
// counts — and, because nothing fans out inside a control tick, the
// recorded *sequence* is identical at Parallelism 1 and 8 (the knob only
// widens the learning pool). Wall-clock fields are the only
// nondeterministic ones and are zeroed before comparing. CI runs this
// suite under -race.
func TestManagerRecorderEquivalence(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2), moduleOf("M2", 2)}}
	scenarios := workload.Scenarios()
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		sc := scenarios[rng.Intn(len(scenarios))]
		for sc.NeedsArg {
			sc = scenarios[rng.Intn(len(scenarios))]
		}
		seed := int64(1 + rng.Intn(100))
		rng.Intn(4) // the draw that once picked an L1 fan-out width: keeps the scenario and seed stream, and so the subtest names
		t.Run(sc.Name, func(t *testing.T) {
			trace, err := sc.Trace(seed)
			if err != nil {
				t.Fatal(err)
			}
			sc.ScaleToCluster(trace, 4)
			if trace.Len() > 20 {
				trace = trace.Slice(0, 20)
			}
			plan := sc.FailurePlan(trace)
			cfg := fastConfig()
			cfg.Seed = seed
			newStore := func() *workload.Store {
				s, err := workload.NewStore(des.NewStream(seed, "store"), sc.StoreConfig())
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			runOnce := func(parallelism int, rec *obs.Recorder) *Record {
				cfg := cfg
				cfg.Parallelism = parallelism
				mgr, err := NewManager(spec, cfg)
				if err != nil {
					t.Fatal(err)
				}
				mgr.SetRecorder(rec)
				r, err := mgr.Run(newStore(), SessionConfig{Trace: trace, Failures: plan})
				if err != nil {
					t.Fatal(err)
				}
				r.LearnTime, r.DecideTime = 0, 0
				return r
			}
			// sequence is everything the recorder holds, oldest first,
			// with the one wall-clock field zeroed.
			sequence := func(rec *obs.Recorder) []obs.Record {
				recs := rec.Window(nil, 0)
				for i := range recs {
					recs[i].DecideNs = 0
				}
				return recs
			}
			rec, err := obs.NewRecorder(1 << 14)
			if err != nil {
				t.Fatal(err)
			}
			rec8, err := obs.NewRecorder(1 << 14)
			if err != nil {
				t.Fatal(err)
			}
			want := runOnce(1, nil)
			got := runOnce(1, rec)
			got8 := runOnce(8, rec8)
			if !reflect.DeepEqual(want, got) || !reflect.DeepEqual(want, got8) {
				t.Errorf("seed %d: recorded run diverges\nplain:            %+v\nrecorded:         %+v\nrecorded, 8 wide: %+v",
					seed, want, got, got8)
			}
			if rec.Total() > 1<<14 {
				t.Fatalf("ring of %d wrapped (%d records): the sequences below are not whole runs", 1<<14, rec.Total())
			}
			if seq, seq8 := sequence(rec), sequence(rec8); !slices.Equal(seq, seq8) {
				t.Errorf("seed %d: record sequence differs between Parallelism 1 (%d records) and 8 (%d records)",
					seed, len(seq), len(seq8))
			}

			// The recorder actually saw the hierarchy: tick records for
			// every engine tick plus controller records at every level.
			counts := map[obs.Level]int{}
			ticks := int64(-1)
			for _, r := range rec.Window(nil, 0) {
				counts[r.Level]++
				if r.Tick > ticks {
					ticks = r.Tick
				}
			}
			if counts[obs.LevelTick] == 0 || counts[obs.LevelL0] == 0 ||
				counts[obs.LevelL1] == 0 || counts[obs.LevelL2] == 0 {
				t.Errorf("level coverage incomplete: %v (total %d)", counts, rec.Total())
			}
			if ticks < 1 {
				t.Errorf("tick stamps did not advance (max %d)", ticks)
			}
		})
	}
}
