package obs_test

import (
	"testing"

	"hierctl"
	"hierctl/internal/obs"
)

// arenaShapes are the tenant shapes hpmperf drives — the two-computer
// tenant at wide-sparse's 6 arrivals a bin and at rpc-single's and
// restart-restore's 25, the §4.3 four-computer module, 4×4 with L2 — and a
// four-computer module under the mixed chaos plan (failures, sanitizer
// holds) with a squeezed decision budget, so Stale and Degraded are in the
// mix.
var arenaShapes = []struct {
	name    string
	cluster func() (hierctl.ClusterSpec, error)
	perBin  float64 // hpmperf's arrivals per bin on this shape
	chaos   bool
}{
	{"2-computer tenant", func() (hierctl.ClusterSpec, error) { return hierctl.ScaledModuleCluster(2) }, 6, false},
	{"2-computer tenant at 25 a bin", func() (hierctl.ClusterSpec, error) { return hierctl.ScaledModuleCluster(2) }, 25, false},
	{"4-computer module", hierctl.StandardModuleCluster, 900, false},
	{"4x4 with L2", func() (hierctl.ClusterSpec, error) { return hierctl.StandardCluster(4) }, 100, false},
	{"4-computer module under faults", hierctl.StandardModuleCluster, 900, true},
}

// recordShape runs shape i with rec attached until rec has seen records
// records, calling each after every bin, and returns the bins it took.
func recordShape(t *testing.T, i int, rec *obs.Recorder, records uint64, each func(bin int)) int {
	t.Helper()
	sh := arenaShapes[i]
	spec, err := sh.cluster()
	if err != nil {
		t.Fatal(err)
	}
	cfg := hierctl.ExperimentOptions{Seed: 25, Fast: true}.Config()
	cfg.RecordFrequencies = false
	cfg.Parallelism = 1
	mgr, err := hierctl.NewManager(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := hierctl.SessionConfig{BinSeconds: 30}
	if sh.chaos {
		mixed, err := hierctl.LookupChaosPlan("mixed")
		if err != nil {
			t.Fatal(err)
		}
		// The run spans about 5,000 bins of 30 s, so the plan's faults
		// land in full windows; a budget of 120 explored states trips the
		// fallback on some decisions.
		sc.Chaos = mixed.Build(25, 5000*30)
		sc.Chaos.DecisionBudget = 120
	}
	mgr.SetRecorder(rec)
	store, err := hierctl.NewStore(25, hierctl.DefaultStoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := mgr.NewSession(store, sc)
	if err != nil {
		t.Fatal(err)
	}
	bin := 0
	for ; rec.Total() < records; bin++ {
		// A load that swings by ±50 % over 12 bins, so the controllers move.
		count := sh.perBin * (1 + 0.5*float64(bin%12-6)/6)
		if _, err := sess.ObserveBin(count); err != nil {
			t.Fatal(err)
		}
		each(bin)
	}
	return bin
}

// TestRecorderArenaFlat pins the per-record budget, an average, against
// what the hierarchy actually writes: on each of arenaShapes, with
// hpmserve's 4096-record ring, the records wrap the ring at least three
// times without the arena growing past what NewRecorder allocated, and the
// retained window averages at most the budget.
//
//hpm:pin mechanics
func TestRecorderArenaFlat(t *testing.T) {
	const records = 4096
	for i, sh := range arenaShapes {
		t.Run(sh.name, func(t *testing.T) {
			rec, err := obs.NewRecorder(records)
			if err != nil {
				t.Fatal(err)
			}
			arena, _ := obs.ArenaBytes(rec)
			if arena != records*obs.RecordBudget {
				t.Fatalf("a %d-record ring has a %d B arena, want %d", records, arena, records*obs.RecordBudget)
			}
			var degraded, stale int
			worst := 0.0 // the largest average over a full window
			var recs []obs.Record
			var cursor uint64
			bins := recordShape(t, i, rec, 4*records, func(bin int) {
				if got, _ := obs.ArenaBytes(rec); got != arena {
					t.Fatalf("bin %d, %d records: the arena grew from %d to %d bytes", bin, rec.Total(), arena, got)
				}
				recs, cursor = rec.Since(recs[:0], cursor)
				for _, r := range recs {
					if r.Degraded {
						degraded++
					}
					if r.Stale > 0 {
						stale++
					}
				}
				if rec.Len() == records {
					_, used := obs.ArenaBytes(rec)
					worst = max(worst, float64(used)/records)
				}
			})
			if sh.chaos && (degraded == 0 || stale == 0) {
				t.Fatalf("%d degraded and %d stale tick records over %d bins: the plan did not reach the recorder", degraded, stale, bins)
			}
			if worst > obs.RecordBudget {
				t.Fatalf("a window of %d records took %.2f B each, over the %d B budget", records, worst, obs.RecordBudget)
			}
			_, used := obs.ArenaBytes(rec)
			t.Logf("%d records over %d bins through a %d B arena; the last %d take %.1f B each, the worst window %.2f (%d degraded, %d stale)",
				rec.Total(), bins, arena, rec.Len(), float64(used)/records, worst, degraded, stale)
		})
	}
}

// TestRecordNeverLonger pins that coding a record against its block's
// predecessors never costs more than its parent form, the self-contained
// one every record took before (obs.ParentLength): for every writer shape
// first in its block and as the record after every other one, and for the first 10⁴
// records of each of arenaShapes. Both forms take the tick from the same
// origin: a block's first record carries it in full where the parent kept
// the block's origin tick in its seek anchor. Across each session the
// records and their anchors take less than the parent's: 12 B anchors and
// each tick the delta from the previous record's.
//
//hpm:pin mechanics
func TestRecordNeverLonger(t *testing.T) {
	check := func(what string, recs []obs.Record, from int) (coded int) {
		t.Helper()
		obs.CodedLengths(recs, func(i, n int, origin int64) {
			if p := obs.ParentLength(&recs[i], origin); i >= from && n > p {
				t.Errorf("%s: record %d (%+v) codes to %d B, its parent form to %d", what, i, recs[i], n, p)
			}
			coded += n
		})
		return coded
	}
	shapes := obs.WriterRecords()
	for i, a := range shapes {
		check("a writer shape first in its block", shapes[i:i+1], 0)
		for _, b := range shapes {
			// b comes next, at a's tick or, after the tick's own record, the next.
			b.Tick = a.Tick
			if a.Level == obs.LevelTick {
				b.Tick++
			}
			check("a writer shape after another", []obs.Record{a, b}, 1)
		}
	}
	const records = 10_000
	for i, sh := range arenaShapes {
		rec, err := obs.NewRecorder(records)
		if err != nil {
			t.Fatal(err)
		}
		recordShape(t, i, rec, records, func(int) {})
		recs := rec.Window(nil, 0)
		anchors := (len(recs) + 15) / 16
		coded, parent := check(sh.name, recs, 0)+4*anchors, 12*anchors
		prev := int64(0)
		for j := range recs {
			parent += obs.ParentLength(&recs[j], prev)
			prev = recs[j].Tick
		}
		if coded >= parent {
			t.Errorf("%s: %d records and their anchors take %d B, the parent form %d", sh.name, len(recs), coded, parent)
		}
		t.Logf("%s: %d records and their anchors take %d B (%.2f B a record), the parent form %d (%.2f)",
			sh.name, len(recs), coded, float64(coded)/records, parent, float64(parent)/records)
	}
}
