package obs_test

import (
	"testing"

	"hierctl"
	"hierctl/internal/obs"
)

// TestRecorderArenaFlat pins the per-record budget against what the
// hierarchy actually writes: on each tenant shape hpmperf drives — the
// two-computer tenant, the §4.3 four-computer module, 4×4 with L2 — with
// hpmserve's 4096-record ring, the records wrap the ring at least three
// times without the arena growing past what NewRecorder allocated.
func TestRecorderArenaFlat(t *testing.T) {
	const records = 4096
	shapes := []struct {
		name    string
		cluster func() (hierctl.ClusterSpec, error)
		perBin  float64 // hpmperf's arrivals per bin on this shape
	}{
		{"2-computer tenant", func() (hierctl.ClusterSpec, error) { return hierctl.ScaledModuleCluster(2) }, 6},
		{"4-computer module", hierctl.StandardModuleCluster, 900},
		{"4x4 with L2", func() (hierctl.ClusterSpec, error) { return hierctl.StandardCluster(4) }, 100},
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
			rec, err := obs.NewRecorder(records)
			if err != nil {
				t.Fatal(err)
			}
			mgr.SetRecorder(rec)
			store, err := hierctl.NewStore(25, hierctl.DefaultStoreConfig())
			if err != nil {
				t.Fatal(err)
			}
			sess, err := mgr.NewSession(store, hierctl.SessionConfig{BinSeconds: 30})
			if err != nil {
				t.Fatal(err)
			}
			arena, _ := obs.ArenaBytes(rec)
			for bin := 0; rec.Total() < 4*records; bin++ {
				// A load that swings by ±50 % over 12 bins, so the controllers move.
				count := sh.perBin * (1 + 0.5*float64(bin%12-6)/6)
				if _, err := sess.ObserveBin(count); err != nil {
					t.Fatal(err)
				}
				if got, _ := obs.ArenaBytes(rec); got != arena {
					t.Fatalf("bin %d, %d records: the arena grew from %d to %d bytes", bin, rec.Total(), arena, got)
				}
			}
			_, used := obs.ArenaBytes(rec)
			t.Logf("%d records through a %d B arena; the last %d take %.1f B each", rec.Total(), arena, rec.Len(), float64(used)/float64(rec.Len()))
		})
	}
}
