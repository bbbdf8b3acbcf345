package obs_test

import (
	"testing"

	"hierctl"
	"hierctl/internal/obs"
)

// TestRecorderArenaFlat pins the per-record budget, an average, against
// what the hierarchy actually writes: on each tenant shape hpmperf drives —
// the two-computer tenant, the §4.3 four-computer module, 4×4 with L2 — and
// on a four-computer module under the mixed chaos plan (failures, sanitizer
// holds) with a squeezed decision budget, so Stale and Degraded are in the
// mix, with hpmserve's 4096-record ring the records wrap the ring at least
// three times without the arena growing past what NewRecorder allocated,
// and the retained window averages at most the budget.
//
//hpm:pin mechanics
func TestRecorderArenaFlat(t *testing.T) {
	const records = 4096
	shapes := []struct {
		name    string
		cluster func() (hierctl.ClusterSpec, error)
		perBin  float64 // hpmperf's arrivals per bin on this shape
		chaos   bool
	}{
		{"2-computer tenant", func() (hierctl.ClusterSpec, error) { return hierctl.ScaledModuleCluster(2) }, 6, false},
		{"4-computer module", hierctl.StandardModuleCluster, 900, false},
		{"4x4 with L2", func() (hierctl.ClusterSpec, error) { return hierctl.StandardCluster(4) }, 100, false},
		{"4-computer module under faults", hierctl.StandardModuleCluster, 900, true},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
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
				// land in full windows; a budget of 120 explored states
				// trips the fallback on some decisions. A window of nothing
				// but fallback ticks would sit at the budget.
				sc.Chaos = mixed.Build(25, 5000*30)
				sc.Chaos.DecisionBudget = 120
			}
			rec, err := obs.NewRecorder(records)
			if err != nil {
				t.Fatal(err)
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
			arena, _ := obs.ArenaBytes(rec)
			if arena != records*obs.RecordBudget {
				t.Fatalf("a %d-record ring has a %d B arena, want %d", records, arena, records*obs.RecordBudget)
			}
			var degraded, stale int
			worst := 0.0 // the largest average over a full window
			var recs []obs.Record
			var cursor uint64
			bin := 0
			for ; rec.Total() < 4*records; bin++ {
				// A load that swings by ±50 % over 12 bins, so the controllers move.
				count := sh.perBin * (1 + 0.5*float64(bin%12-6)/6)
				if _, err := sess.ObserveBin(count); err != nil {
					t.Fatal(err)
				}
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
			}
			if sh.chaos && (degraded == 0 || stale == 0) {
				t.Fatalf("%d degraded and %d stale tick records over %d bins: the plan did not reach the recorder", degraded, stale, bin)
			}
			if worst > obs.RecordBudget {
				t.Fatalf("a window of %d records took %.2f B each, over the %d B budget", records, worst, obs.RecordBudget)
			}
			_, used := obs.ArenaBytes(rec)
			t.Logf("%d records over %d bins through a %d B arena; the last %d take %.1f B each, the worst window %.1f (%d degraded, %d stale)",
				rec.Total(), bin, arena, rec.Len(), float64(used)/records, worst, degraded, stale)
		})
	}
}
