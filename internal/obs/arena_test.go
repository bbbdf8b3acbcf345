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

// TestRecorderArenaFlat pins the pages a ring holds against what the
// hierarchy actually writes: on each of arenaShapes, with hpmserve's
// 4096-record ring, NewRecorder's 16 pages take the records, or the ring
// adds pages until it holds ⌈W / page⌉ + 1, W the most bytes any window of
// 4096 records took, and once the window has wrapped twice it adds no page.
// The records' latencies are wall-clock varints, so how many pages a shape
// adds depends on the runner (a race-detector build's slower decisions
// take longer ones); it is logged, not held.
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
			initial, _ := obs.ArenaBytes(rec)
			if want := records * obs.InitialRecordBytes; initial != want || initial%obs.PageBytes != 0 {
				t.Fatalf("a %d-record ring starts with %d B of pages, want %d in %d B pages", records, initial, want, obs.PageBytes)
			}
			var degraded, stale int
			var all, recs []obs.Record
			var cursor uint64
			most, wrapped := 0, 0 // the most pages held, and the pages held once the window had wrapped twice
			bins := recordShape(t, i, rec, 4*records, func(bin int) {
				recs, cursor = rec.Since(recs[:0], cursor)
				for _, r := range recs {
					if r.Degraded {
						degraded++
					}
					if r.Stale > 0 {
						stale++
					}
				}
				all = append(all, recs...)
				size, _ := obs.ArenaBytes(rec)
				most = max(most, size/obs.PageBytes)
				if wrapped == 0 && rec.Total() >= 3*records {
					wrapped = most
				}
			})
			if sh.chaos && (degraded == 0 || stale == 0) {
				t.Fatalf("%d degraded and %d stale tick records over %d bins: the plan did not reach the recorder", degraded, stale, bins)
			}
			// The bytes of every window of 4096 records, as the ring coded them.
			worst, window := 0, 0
			lengths := make([]int, len(all))
			obs.CodedLengths(all, func(j, n int, _ int64) {
				lengths[j] = n
				if window += n; j >= records {
					window -= lengths[j-records]
				}
				worst = max(worst, window)
			})
			if ceiling := max(initial/obs.PageBytes, (worst+obs.PageBytes-1)/obs.PageBytes+1); most > ceiling {
				t.Fatalf("the ring came to hold %d pages, over the %d a window of %d B needs", most, ceiling, worst)
			}
			if most != wrapped {
				t.Fatalf("the ring held %d pages once the window had wrapped twice and then added %d more", wrapped, most-wrapped)
			}
			_, used := obs.ArenaBytes(rec)
			t.Logf("%d records over %d bins; %d pages held, %d added to the first %d; the last %d records take %.2f B each, the worst window %.2f (%d degraded, %d stale)",
				rec.Total(), bins, most, most-initial/obs.PageBytes, initial/obs.PageBytes, rec.Len(), float64(used)/records, float64(worst)/records, degraded, stale)
		})
	}
}

// TestRecorderSettledZeroAlloc pins that a settled ring allocates nothing:
// on each of arenaShapes, once the window has wrapped, the pages the tail
// passes take the next records. The window the shape wrote is written
// again, once to settle and once counted.
//
//hpm:pin mechanics
func TestRecorderSettledZeroAlloc(t *testing.T) {
	const records = 4096
	for i, sh := range arenaShapes {
		t.Run(sh.name, func(t *testing.T) {
			rec, err := obs.NewRecorder(records)
			if err != nil {
				t.Fatal(err)
			}
			recordShape(t, i, rec, 2*records, func(int) {})
			window := rec.Window(nil, 0)
			allocs := testing.AllocsPerRun(1, func() {
				for _, r := range window {
					rec.SetTick(r.Tick)
					rec.Record(r)
				}
			})
			if allocs != 0 {
				t.Fatalf("writing a wrapped window of %d records again allocated %v times", len(window), allocs)
			}
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
