package obs_test

import (
	"bytes"
	"os"
	"testing"

	"hierctl"
	"hierctl/internal/obs"
)

// goldenRecords runs two seeded sessions through small rings and returns
// the JSON Lines export of what each ring retains at the end, with every
// decideNs (wall clock) zeroed: a two-computer tenant at 6 arrivals a bin
// through a 64-record ring it wraps many times, then a 4×4 tenant with L2
// at 100 arrivals a bin through a 256-record ring it wraps.
func goldenRecords(t *testing.T) []byte {
	t.Helper()
	sessions := []struct {
		cluster func() (hierctl.ClusterSpec, error)
		perBin  float64
		ring    int
		bins    int
	}{
		{func() (hierctl.ClusterSpec, error) { return hierctl.ScaledModuleCluster(2) }, 6, 64, 400},
		{func() (hierctl.ClusterSpec, error) { return hierctl.StandardCluster(4) }, 100, 256, 160},
	}
	var out bytes.Buffer
	for _, s := range sessions {
		spec, err := s.cluster()
		if err != nil {
			t.Fatal(err)
		}
		cfg := hierctl.ExperimentOptions{Seed: 59, Fast: true}.Config()
		cfg.RecordFrequencies = false
		cfg.Parallelism = 1
		mgr, err := hierctl.NewManager(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := obs.NewRecorder(s.ring)
		if err != nil {
			t.Fatal(err)
		}
		mgr.SetRecorder(rec)
		store, err := hierctl.NewStore(59, hierctl.DefaultStoreConfig())
		if err != nil {
			t.Fatal(err)
		}
		sess, err := mgr.NewSession(store, hierctl.SessionConfig{BinSeconds: 30})
		if err != nil {
			t.Fatal(err)
		}
		for bin := 0; bin < s.bins; bin++ {
			// A load that swings by ±50 % over 12 bins, so the controllers move.
			if _, err := sess.ObserveBin(s.perBin * (1 + 0.5*float64(bin%12-6)/6)); err != nil {
				t.Fatal(err)
			}
		}
		if rec.Total() < 3*uint64(s.ring) {
			t.Fatalf("%d records through a %d-record ring: it wrapped fewer than 3 times", rec.Total(), s.ring)
		}
		recs := rec.Window(nil, 0)
		for i := range recs {
			recs[i].DecideNs = 0
		}
		if err := obs.WriteJSONL(&out, recs); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestRecordsGolden pins the flight records end to end, bit for bit:
// goldenRecords reads back exactly testdata/records.golden, which the
// recorder wrote when it kept every record in its own self-contained
// form, before records were coded against their block's predecessors.
//
//hpm:pin mechanics
func TestRecordsGolden(t *testing.T) {
	got := goldenRecords(t)
	want, err := os.ReadFile("testdata/records.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range min(len(gl), len(wl)) {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d differs from the golden\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%d lines, the golden has %d", len(gl), len(wl))
	}
}
