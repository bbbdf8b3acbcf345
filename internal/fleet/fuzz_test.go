package fleet

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hierctl/internal/cluster"
)

// fuzzSeedLogs builds the seed inputs for FuzzSnapshotRestore: valid
// snapshot and journal-shaped logs plus characteristic damage (torn
// tail, flipped byte, bad magic), then a mixed-shape fleet whose log holds
// several artifact frames of both kinds and bases referencing different
// subsets of them. The same generator writes the committed corpus under
// testdata/fuzz (see TestWriteFuzzCorpus).
func fuzzSeedLogs(t testing.TB) [][]byte {
	f := New(Config{Shards: 1})
	defer f.Close()
	for i, id := range []string{"a", "b"} {
		// No ArtifactDir: the embedded config must be self-contained so
		// a fuzz-time restore rebuilds from the snapshot's own artifact
		// blobs instead of erroring on a vanished cache directory.
		tc := batchTenantConfig("", int64(i+1))
		if err := f.CreateTenant(id, tc); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []float64{200, 250, 150} {
		if _, err := f.Observe("a", c); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := f.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	// Journal-shaped: base frames plus a delta and a remove.
	journal := bytes.NewBuffer(append([]byte(nil), snap.Bytes()...))
	for _, fr := range []logFrame{
		{Kind: frameDelta, ID: "a", From: 3, Counts: []float64{300, 175}},
		{Kind: frameRemove, ID: "b"},
	} {
		if _, err := writeFrame(journal, &fr); err != nil {
			t.Fatal(err)
		}
	}

	// Mixed shapes: c has its own learning grid (a second map g), d is
	// two modules of a's hardware (a's map again, plus a tree J̃).
	tc := batchTenantConfig("", 3)
	tc.Core.GMap.QStep = 50
	if err := f.CreateTenant("c", tc); err != nil {
		t.Fatal(err)
	}
	tc = batchTenantConfig("", 4)
	tc.Spec = cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2), moduleOf("M2", 2)}}
	if err := f.CreateTenant("d", tc); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"c", "d"} {
		if _, err := f.Observe(id, 180); err != nil {
			t.Fatal(err)
		}
	}
	var mixed bytes.Buffer
	if err := f.Snapshot(&mixed); err != nil {
		t.Fatal(err)
	}

	valid := snap.Bytes()
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	return [][]byte{
		valid,
		journal.Bytes(),
		valid[:len(valid)-9], // torn final frame
		flipped,              // checksum mismatch mid-log
		[]byte(snapshotMagic),
		[]byte("HPMSNAP1 not a log"),
		{},
		mixed.Bytes(),
	}
}

// fuzzSafeShape bounds the work a decoded snapshot may demand before the
// fuzz target rebuilds it: the decoder itself must hold on any input,
// but a full restore replays offline learning and per-bin simulation
// whose cost is attacker-chosen via the embedded config (grid sizes,
// arrival counts, drain windows). Inputs outside these bounds still
// exercise decode; they just skip the rebuild.
func fuzzSafeShape(s tenantSnap) bool {
	finite := func(vs ...float64) bool {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	boundedCounts := func(vs []float64, n int) bool {
		if len(vs) > n {
			return false
		}
		for _, v := range vs {
			if !finite(v) || v < 0 || v > 2000 {
				return false
			}
		}
		return true
	}
	c := s.Config
	if !boundedCounts(s.Observations, 48) || !boundedCounts(c.Calibration, 48) {
		return false
	}
	if len(c.Spec.Modules) > 2 || c.Spec.Computers() > 4 {
		return false
	}
	for _, m := range c.Spec.Modules {
		for _, comp := range m.Computers {
			if len(comp.FrequenciesHz) > 8 {
				return false
			}
		}
	}
	if !finite(c.BinSeconds, c.Start, c.Core.L0.PeriodSeconds, c.Core.DrainSeconds) {
		return false
	}
	if c.Core.L0.PeriodSeconds > 0 && c.BinSeconds/c.Core.L0.PeriodSeconds > 8 {
		return false
	}
	if c.Core.L0.Horizon > 3 || c.Core.DrainSeconds > 900 {
		return false
	}
	g := c.Core.GMap
	if !finite(g.QMax, g.QStep, g.LambdaMax, g.LambdaStep, g.CMin, g.CMax, g.CStep) {
		return false
	}
	if g.QMax > 1000 || g.LambdaMax > 500 || g.SubSteps > 4 {
		return false
	}
	// Bound the learning grid's cell count (steps are validated > 0 by
	// the manager; guard the division anyway).
	cells := func(max, step float64) float64 {
		if step <= 0 {
			return 1
		}
		return max/step + 1
	}
	if cells(g.QMax, g.QStep)*cells(g.LambdaMax, g.LambdaStep)*cells(g.CMax-g.CMin, g.CStep) > 4096 {
		return false
	}
	ms := c.Core.ModuleSim
	// MaxDepth < 1 defaults to 12 inside approx — cap the effective
	// depth, not just the literal field value.
	if len(ms.QLevels)*len(ms.LambdaLevels)*len(ms.CLevels) > 64 || ms.Tree.MaxDepth > 8 || ms.Tree.MaxDepth < 1 {
		return false
	}
	for _, v := range ms.LambdaLevels {
		if !finite(v) || v < 0 || v > 500 {
			return false
		}
	}
	for _, v := range ms.QLevels {
		if !finite(v) || v < 0 || v > 2000 {
			return false
		}
	}
	if c.Store.Objects > 5000 || c.Store.HistoryCap > 65536 || c.TelemetryRecords > 4096 || len(c.Failures) > 16 {
		return false
	}
	return true
}

// FuzzSnapshotRestore is the snapshot subsystem's safety pin: the frame
// decoder must never panic on arbitrary bytes (both the strict and the
// torn-tolerant paths), and any log the decoder accepts within the cost
// bounds must rebuild into a fleet that replays deterministically — a
// snapshot of the restored fleet restores again to a fleet producing
// bit-identical next decisions.
func FuzzSnapshotRestore(f *testing.F) {
	for _, seed := range fuzzSeedLogs(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := assembleLog(bytes.NewReader(data), true); err != nil {
			// Tolerant and strict decode agree except for torn tails;
			// nothing decodable, nothing to rebuild.
			return
		}
		log, err := assembleLog(bytes.NewReader(data), false)
		if err != nil {
			return
		}
		for _, s := range log.tenants {
			if !fuzzSafeShape(s) {
				return
			}
		}
		fl := New(Config{Shards: 1})
		defer fl.Close()
		if err := fl.Restore(bytes.NewReader(data)); err != nil {
			return // rejected at rebuild (invalid config): fine, no panic
		}
		// Accepted: the restored fleet must round-trip deterministically.
		var buf bytes.Buffer
		if err := fl.Snapshot(&buf); err != nil {
			t.Fatalf("snapshot of restored fleet: %v", err)
		}
		fl2 := New(Config{Shards: 1})
		defer fl2.Close()
		if err := fl2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("re-restore of accepted snapshot: %v", err)
		}
		for _, id := range fl.Tenants() {
			for k := 0; k < 2; k++ {
				want, err1 := fl.Observe(id, 120)
				got, err2 := fl2.Observe(id, 120)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("tenant %s bin %d: errors diverged: %v vs %v", id, k, err1, err2)
				}
				if err1 != nil {
					break
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("tenant %s bin %d: decisions diverged after round-trip", id, k)
				}
			}
		}
	})
}

// TestWriteFuzzCorpus writes the seeds missing from the committed corpus
// under testdata/fuzz/FuzzSnapshotRestore. Existing files are left alone:
// seed-00 to seed-06 were written before artifact frames existed and are
// the corpus's embedded-blob, union-typed-delta inputs (FuzzSnapshotRestore
// adds the current layout of the same logs at run time). Gated so a normal
// run never touches checked-in files:
//
//	HPM_WRITE_FUZZ_CORPUS=1 go test ./internal/fleet -run TestWriteFuzzCorpus
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("HPM_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("corpus generator; set HPM_WRITE_FUZZ_CORPUS=1 to write testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotRestore")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range fuzzSeedLogs(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if _, err := os.Stat(name); err == nil {
			continue
		}
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
