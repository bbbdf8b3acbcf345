package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"hierctl/internal/cluster"
)

// fuzzSeedLogs builds the seed inputs for FuzzSnapshotRestore: valid
// snapshot and journal-shaped logs plus characteristic damage (torn
// tail, flipped byte, bad magic), then a mixed-shape fleet — tenants of
// two learning grids, one of them two modules (a map g and a tree J̃) —
// with a halted tenant, and last the journal-shaped log followed by a
// second stream — a fresh writer's segment start and a delta — which the
// reader refuses. The same generator writes the committed corpus under
// testdata/fuzz (see TestWriteFuzzCorpus).
func fuzzSeedLogs(t testing.TB) [][]byte {
	f := New(Config{Shards: 1})
	defer f.Close()
	for i, id := range []string{"a", "b"} {
		tc := batchTenantConfig(int64(i + 1))
		if err := f.CreateTenant(id, tc); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []float64{200, 250, 150} {
		if _, err := f.Observe("a", c); err != nil {
			t.Fatal(err)
		}
	}
	snaps, err := f.captureAll(false)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	fw, _, err := writeBaseLog(&snap, snaps)
	if err != nil {
		t.Fatal(err)
	}

	// Journal-shaped: base frames plus a delta and a remove on their
	// stream; then a second stream with a delta.
	journal := bytes.NewBuffer(append([]byte(nil), snap.Bytes()...))
	fw.w = journal
	for _, fr := range []logFrame{
		{Kind: frameDelta, ID: "a", From: 3, Counts: []float64{300, 175}},
		{Kind: frameRemove, ID: "b"},
	} {
		if _, err := fw.frame(&fr); err != nil {
			t.Fatal(err)
		}
	}
	twoStreams := bytes.NewBuffer(append([]byte(nil), journal.Bytes()...))
	if fw, _, err = newFrameWriter(twoStreams); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.frame(&logFrame{Kind: frameDelta, ID: "a", From: 5, Counts: []float64{240}}); err != nil {
		t.Fatal(err)
	}

	// Mixed shapes: c has its own learning grid (a second map g), d is
	// two modules of a's hardware (a's map again, plus a tree J̃).
	tc := batchTenantConfig(3)
	tc.Core.GMap.QStep = 50
	if err := f.CreateTenant("c", tc); err != nil {
		t.Fatal(err)
	}
	tc = batchTenantConfig(4)
	tc.Spec = cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2), moduleOf("M2", 2)}}
	if err := f.CreateTenant("d", tc); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"c", "d"} {
		if _, err := f.Observe(id, 180); err != nil {
			t.Fatal(err)
		}
	}
	// e is halted: a panic after its second bin's last tick.
	if err := f.CreateTenant("e", batchTenantConfig(5)); err != nil {
		t.Fatal(err)
	}
	haltAfterBin(t, f, "e", 1)
	for _, c := range []float64{220, 160} {
		if _, err := f.Observe("e", c); err != nil && !errors.Is(err, ErrTenantQuarantined) {
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
		twoStreams.Bytes(),
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
	// An observation tenant.step refuses ends the replay there with an
	// error and no work, so only the bins before it have a cost to bound.
	obs := s.Observations
	for i, v := range obs {
		if CheckBinCount(v) != nil {
			obs = obs[:i]
			break
		}
	}
	if !boundedCounts(obs, 48) || !boundedCounts(c.Calibration, 48) {
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
// bounds must rebuild into a fleet whose checkpoint restores it exactly —
// a snapshot of the restored fleet restores again to a fleet with the same
// states and telemetry cursors, bit-identical next decisions and records,
// and the same close records (the checkpoint property, sameFleets).
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
		snaps, err := assembleLog(bytes.NewReader(data), false)
		if err != nil {
			return
		}
		for _, s := range snaps {
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
		sameFleets(t, fl, fl2, 0, 2)
	})
}

// foldSeedLogs builds the seed inputs for FuzzFoldLog: the journal the
// PR 12 binary wrote (embedded artifact blobs, union-typed deltas, a torn
// tail's worth of history) and this build's snapshot and journal-shaped
// logs of the same small fleet — that snapshot followed by a delta naming
// a count no feed could hold (see hugeCountLog), the journal-shaped log
// followed by a second stream, and a log whose one frame is the byte
// 0x80, a message length gob never writes.
func foldSeedLogs(t testing.TB) [][]byte {
	parent, err := os.ReadFile(filepath.Join("testdata", "pr12.journal"))
	if err != nil {
		t.Fatal(err)
	}
	logs := fuzzSeedLogs(t)
	badLength := append([]byte(snapshotMagic), sealFrame([]byte{0x80})...)
	return [][]byte{parent, logs[0], logs[1], hugeCountLog(t, logs[0]), logs[8], badLength}
}

// hugeCountLog appends to a snapshot of tenants a (3 bins) and b a sealed
// delta frame for a whose second count is 1e13: a well-formed log — foldLog
// checks no count — whose replay used to size the feed's request batch
// from it and die of an out-of-memory throw.
func hugeCountLog(t testing.TB, snap []byte) []byte {
	log := bytes.NewBuffer(append([]byte(nil), snap...))
	if _, err := appendWriter(t, log).frame(&logFrame{Kind: frameDelta, ID: "a", From: 3, Counts: []float64{300, 1e13}}); err != nil {
		t.Fatal(err)
	}
	return log.Bytes()
}

// resealFrames returns data with the checksum of every complete frame
// rewritten to match its payload, so a mutated payload reaches the gob
// decoder and the fold's structural rules instead of stopping at the CRC.
// Bytes that do not walk as frames (a length outside the cap, a torn
// tail) are left as they are.
func resealFrames(data []byte) []byte {
	out := append([]byte(nil), data...)
	for off := len(snapshotMagic); off+8 <= len(out); {
		n := int(binary.LittleEndian.Uint32(out[off:]))
		if n == 0 || n > maxFramePayload || off+8+n > len(out) {
			break
		}
		binary.LittleEndian.PutUint32(out[off+4:], crc32.ChecksumIEEE(out[off+8:off+8+n]))
		off += 8 + n
	}
	return out
}

// FuzzFoldLog is the frame log reader's safety pin, on the raw bytes and
// again with every frame re-sealed: foldLog returns a report — with or
// without an error — and never panics; a scan allocates in proportion to
// the bytes it was given plus at most one frame's cap (a length header
// cannot drive an allocation past maxFramePayload, and no payload makes
// the gob decoder balloon); and Fleet.Restore on the same bytes registers
// every tenant the log holds or none.
func FuzzFoldLog(f *testing.F) {
	for _, seed := range foldSeedLogs(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFoldLog(t, data)
		if sealed := resealFrames(data); !bytes.Equal(sealed, data) {
			checkFoldLog(t, sealed)
		}
	})
}

func checkFoldLog(t *testing.T, log []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := foldLog(bytes.NewReader(log), nil)
	runtime.ReadMemStats(&after)
	if rep == nil {
		t.Fatalf("foldLog returned no report (err %v)", err)
	}
	// Per frame: the payload, its decoded value, and a gob decoder compiled
	// afresh (well under 1 MiB).
	bound := uint64(maxFramePayload + (rep.Frames+1)<<20 + 256*len(log))
	if grown := after.TotalAlloc - before.TotalAlloc; grown > bound {
		t.Fatalf("scanning %d bytes (%d frames) allocated %d, bound %d", len(log), rep.Frames, grown, bound)
	}

	snaps, aerr := assembleLog(bytes.NewReader(log), false)
	if aerr == nil {
		for _, s := range snaps {
			if !fuzzSafeShape(s) {
				return // decodes, but too costly to rebuild
			}
		}
	}
	fl := New(Config{Shards: 1})
	rerr := fl.Restore(bytes.NewReader(log))
	registered := len(fl.Tenants())
	fl.Close()
	switch {
	case rerr != nil && registered != 0:
		t.Fatalf("failed restore (%v) left %d tenants registered", rerr, registered)
	case rerr == nil && (aerr != nil || registered != len(snaps)):
		t.Fatalf("restore registered %d tenants; the log assembles to %d (err %v)", registered, len(snaps), aerr)
	}
}

// TestWriteFuzzCorpus writes the seeds missing from the committed corpora
// under testdata/fuzz. Existing files are left alone, so the corpora keep
// the older layouts the reader must still take (the fuzzers add the
// current layout of the same logs at run time): FuzzSnapshotRestore's
// seed-00 to seed-06 and FuzzFoldLog's seed-00 embed artifact blobs in
// genesis bases and encode deltas from the union type; FuzzSnapshotRestore's
// seed-07 and FuzzFoldLog's seed-01 to seed-03 hold artifact frames that
// genesis bases reference; FuzzSnapshotRestore's seed-08 and FuzzFoldLog's
// seed-04 are logs of one shared stream followed by a second one, and
// FuzzFoldLog's seed-05 a frame of the byte 0x80. Gated so a normal run
// never touches checked-in files:
//
//	HPM_WRITE_FUZZ_CORPUS=1 go test ./internal/fleet -run TestWriteFuzzCorpus
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("HPM_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("corpus generator; set HPM_WRITE_FUZZ_CORPUS=1 to write testdata/fuzz")
	}
	for target, seeds := range map[string][][]byte{
		"FuzzSnapshotRestore": fuzzSeedLogs(t),
		"FuzzFoldLog":         foldSeedLogs(t),
	} {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
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
}
