package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hierctl/internal/chaos"
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

// TestRunRecordsEveryDecision pins the flight record layout the run writes
// where it counts each decision. A two-module session under a failure plan
// and a DecisionBudget small enough to trip records, each tick, in order:
// at an L2 boundary the L2 summary and one γ detail per module; at an L1
// boundary, per module, its L1 summary and one detail per computer; one L0
// record per computer decided; then the tick record. Per level the
// summaries number the Record's decisions and their explored counts sum to
// its explored states; the details and the L0 frequencies are the decision
// in force after the bin; and a tick is flagged degraded exactly when a
// decision due in it left no record — a tripped search writes none.
func TestRunRecordsEveryDecision(t *testing.T) {
	const bins, m = 48, 3
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", m), moduleOf("M2", m)}}
	p := len(spec.Modules)
	mgr, err := NewManager(spec, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := obs.NewRecorder(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	mgr.SetRecorder(rec)
	// One T_L0 tick per 30 s bin, so bin k's records are tick k's.
	s, err := mgr.NewSession(testStore(t), SessionConfig{
		BinSeconds: 30,
		Failures:   []workload.FailureEvent{{At: 200, Module: 0, Comp: 1}, {At: 800, Module: 0, Comp: 1, Repair: true}},
		Chaos:      chaos.Plan{DecisionBudget: 28},
	})
	if err != nil {
		t.Fatal(err)
	}
	var decisions, explored, tripped [4]int // by obs.Level
	var cursor uint64
	for k := range bins {
		dec, err := s.ObserveBin(math.Round(float64(p*m) * (300 + 250*math.Sin(float64(k)/4))))
		if err != nil {
			t.Fatal(err)
		}
		var recs []obs.Record
		recs, cursor = rec.Since(nil, cursor)
		for _, r := range recs {
			if r.Tick != int64(k) {
				t.Fatalf("tick %d: record stamped tick %d: %+v", k, r.Tick, r)
			}
		}
		// take removes the tick's next record and its n details when it
		// is the level's summary at (module, comp), and counts them; a
		// decision due that left none tripped.
		missing := false
		take := func(lv obs.Level, module, comp int16, n int) []obs.Record {
			if len(recs) == 0 || recs[0].Level != lv || recs[0].Module != module || recs[0].Comp != comp {
				tripped[lv]++
				missing = true
				return nil
			}
			if len(recs) < 1+n {
				t.Fatalf("tick %d: %v summary with %d of its %d details", k, lv, len(recs)-1, n)
			}
			group := recs[:1+n]
			recs = recs[1+n:]
			decisions[lv]++
			explored[lv] += int(group[0].Explored)
			return group
		}
		if k%s.r.l2Every == 0 {
			if group := take(obs.LevelL2, -1, -1, p); group != nil {
				for i, d := range group[1:] {
					if d.Level != obs.LevelL2 || d.Module != int16(i) || d.Gamma != dec.GammaModules[i] {
						t.Fatalf("tick %d: L2 detail %d %+v, γ in force %v", k, i, d, dec.GammaModules)
					}
				}
			}
		}
		if k%s.r.l1Every == 0 {
			for i, md := range dec.Modules {
				group := take(obs.LevelL1, int16(i), -1, m)
				for j, d := range group[min(1, len(group)):] {
					if d.Level != obs.LevelL1 || d.Module != int16(i) || d.Comp != int16(j) ||
						d.On != md.Alpha[j] || d.Gamma != md.Gamma[j] {
						t.Fatalf("tick %d: module %d L1 detail %d %+v, in force α %v γ %v", k, i, j, d, md.Alpha, md.Gamma)
					}
				}
			}
		}
		for i, md := range dec.Modules {
			for j, idx := range md.FreqIdx {
				if idx < 0 {
					continue // off or failed: no L0 decides it
				}
				if group := take(obs.LevelL0, int16(i), int16(j), 0); group != nil && group[0].FreqIdx != int16(idx) {
					t.Fatalf("tick %d: computer (%d, %d) L0 record %+v, frequency in force %d", k, i, j, group[0], idx)
				}
			}
		}
		if len(recs) != 1 || recs[0].Level != obs.LevelTick {
			t.Fatalf("tick %d: after the decisions, %+v, want the tick record alone", k, recs)
		}
		if recs[0].Degraded != missing {
			t.Fatalf("tick %d: tick record degraded %v, a due decision left no record %v", k, recs[0].Degraded, missing)
		}
	}
	if rec.Total() > uint64(rec.Capacity()) {
		t.Fatalf("ring of %d wrapped (%d records)", rec.Capacity(), rec.Total())
	}
	fin, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	got := [3][2]int{{decisions[obs.LevelL0], explored[obs.LevelL0]}, {decisions[obs.LevelL1], explored[obs.LevelL1]}, {decisions[obs.LevelL2], explored[obs.LevelL2]}}
	want := [3][2]int{{fin.L0Decisions, fin.L0Explored}, {fin.L1Decisions, fin.L1Explored}, {fin.L2Decisions, fin.L2Explored}}
	if got != want {
		t.Fatalf("recorded (decisions, explored) by level L0, L1, L2: %v, the Record's %v", got, want)
	}
	for _, lv := range []obs.Level{obs.LevelL0, obs.LevelL1, obs.LevelL2} {
		if decisions[lv] == 0 || tripped[lv] == 0 {
			t.Fatalf("%v: %d decisions recorded, %d tripped: the test no longer covers both", lv, decisions[lv], tripped[lv])
		}
	}
}
