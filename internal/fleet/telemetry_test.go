package fleet

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"hierctl/internal/cluster"
	"hierctl/internal/obs"
)

func telemetryTenantConfig(records int) TenantConfig {
	return TenantConfig{
		Spec:             cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2), moduleOf("M2", 2)}},
		Core:             fastCore(),
		Store:            testStoreConfig(),
		StoreSeed:        7,
		BinSeconds:       30,
		TelemetryRecords: records,
	}
}

// TestFleetTelemetry drives a recording tenant and reads its window back
// through the shard-synchronized accessors: records cover every level,
// the cursor advances monotonically, and TelemetrySince resumes exactly
// where Telemetry left off.
func TestFleetTelemetry(t *testing.T) {
	f := New(Config{Shards: 2})
	defer f.Close()
	if err := f.CreateTenant("rec", telemetryTenantConfig(1<<12)); err != nil {
		t.Fatal(err)
	}
	counts := func(i int) float64 { return 700 + 400*math.Sin(float64(i)/3) }
	for i := 0; i < 6; i++ {
		if _, err := f.Observe("rec", counts(i)); err != nil {
			t.Fatal(err)
		}
	}

	recs, cursor, err := f.Telemetry("rec", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("recording tenant returned an empty telemetry window")
	}
	if cursor != uint64(len(recs)) {
		t.Fatalf("cursor %d != records written %d (ring has not wrapped)", cursor, len(recs))
	}
	levels := map[obs.Level]int{}
	lastTick := int64(-1)
	for i, r := range recs {
		levels[r.Level]++
		if r.Tick < lastTick {
			t.Fatalf("record %d out of order: tick %d after %d", i, r.Tick, lastTick)
		}
		lastTick = r.Tick
	}
	for _, lv := range []obs.Level{obs.LevelTick, obs.LevelL0, obs.LevelL1, obs.LevelL2} {
		if levels[lv] == 0 {
			t.Errorf("no %s records in telemetry window (%v)", lv, levels)
		}
	}

	// A bounded read returns the newest max records.
	tail, cur2, err := f.Telemetry("rec", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 3 || cur2 != cursor {
		t.Fatalf("bounded read: %d records cursor %d, want 3 records cursor %d", len(tail), cur2, cursor)
	}
	if tail[2] != recs[len(recs)-1] {
		t.Error("bounded read did not return the newest records")
	}

	// Incremental polling: nothing new yet, then exactly the new bins' worth.
	got, next, err := f.TelemetrySince("rec", cursor)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || next != cursor {
		t.Fatalf("no new records expected, got %d (next %d)", len(got), next)
	}
	if _, err := f.Observe("rec", counts(6)); err != nil {
		t.Fatal(err)
	}
	got, next, err = f.TelemetrySince("rec", cursor)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || next <= cursor {
		t.Fatalf("expected fresh records after another bin, got %d (next %d)", len(got), next)
	}
	for _, r := range got {
		if r.Tick < lastTick {
			t.Errorf("incremental record regressed to tick %d (window ended at %d)", r.Tick, lastTick)
		}
	}

	// A cursor the ring has overwritten past reads the retained window:
	// the lost records are skipped, not waited for, and the reply falls
	// short of next - cursor by exactly what was lost.
	const ring = 256
	if err := f.CreateTenant("small", telemetryTenantConfig(ring)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ { // wrap the ring
		if _, err := f.Observe("small", counts(i)); err != nil {
			t.Fatal(err)
		}
	}
	window, total, err := f.Telemetry("small", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, next, err = f.TelemetrySince("small", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != ring || next != total || total <= ring {
		t.Fatalf("read from an overwritten cursor: %d records, next %d (written %d); want the whole %d-record ring", len(got), next, total, ring)
	}
	if !slices.Equal(got, window) {
		t.Error("read from an overwritten cursor is not the retained window")
	}
	if _, err := f.Observe("small", counts(100)); err != nil {
		t.Fatal(err)
	}
	cursor = next
	got, next, err = f.TelemetrySince("small", cursor)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || uint64(len(got)) != next-cursor {
		t.Fatalf("resumed read: %d records for cursor %d -> %d, want exactly the new ones", len(got), cursor, next)
	}
}

// TestFleetTelemetryDisabled covers the default-off path: no recorder is
// allocated, reads return an empty window, and negative sizes are
// rejected at tenant creation.
func TestFleetTelemetryDisabled(t *testing.T) {
	f := New(Config{Shards: 1})
	defer f.Close()
	if err := f.CreateTenant("off", telemetryTenantConfig(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Observe("off", 500); err != nil {
		t.Fatal(err)
	}
	recs, cursor, err := f.Telemetry("off", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || cursor != 0 {
		t.Fatalf("disabled tenant returned %d records cursor %d", len(recs), cursor)
	}
	if _, _, err := f.TelemetrySince("off", 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Telemetry("ghost", 0); err == nil {
		t.Error("telemetry for unknown tenant did not error")
	}

	err = f.CreateTenant("neg", telemetryTenantConfig(-1))
	if err == nil || !strings.Contains(err.Error(), "telemetry records") {
		t.Fatalf("negative TelemetryRecords accepted: %v", err)
	}
}

// TestFleetTelemetrySurvivesRestore pins the snapshot contract for the
// flight recorder: the recorder size is configuration (persisted) and its
// Total is state (checkpointed), but the ring is a bounded window for
// pollers, not state — a restored tenant's starts empty. A client's cursor
// stays valid across the restore: the records before the checkpoint read
// as overwritten, and every record after it is the one the uninterrupted
// tenant writes.
func TestFleetTelemetrySurvivesRestore(t *testing.T) {
	f1 := New(Config{Shards: 1})
	defer f1.Close()
	// Sequential L1 planning: the parallel fan-out lands the two modules'
	// records in scheduling order, and this pin compares record by record.
	tc := telemetryTenantConfig(1 << 12)
	tc.Core.Parallelism = 1
	if err := f1.CreateTenant("a", tc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := f1.Observe("a", 600+50*float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	_, cursor, err := f1.Telemetry("a", 0)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := f1.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	f2 := New(Config{Shards: 1})
	defer f2.Close()
	if err := f2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	got, gotCur, err := f2.Telemetry("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if gotCur != cursor || len(got) != 0 {
		t.Fatalf("restored ring holds %d records at cursor %d, want none at %d", len(got), gotCur, cursor)
	}
	for _, f := range []*Fleet{f1, f2} {
		if _, err := f.Observe("a", 820); err != nil {
			t.Fatal(err)
		}
	}
	want, wantNext, err := f1.TelemetrySince("a", cursor)
	if err != nil {
		t.Fatal(err)
	}
	got, gotNext, err := f2.TelemetrySince("a", cursor)
	if err != nil {
		t.Fatal(err)
	}
	if gotNext != wantNext || len(got) != len(want) || len(want) == 0 {
		t.Fatalf("after one more bin: restored %d records to cursor %d, original %d to %d", len(got), gotNext, len(want), wantNext)
	}
	for i := range want {
		w, g := want[i], got[i]
		// Wall-clock decide latency is the only nondeterministic field.
		w.DecideNs, g.DecideNs = 0, 0
		if w != g {
			t.Fatalf("record %d diverged after restore:\noriginal %+v\nrestored %+v", i, want[i], got[i])
		}
	}
}

// TestTelemetryRecordsBounded: the ring size is input — a create request,
// or a snapshot / journal frame that may be crafted or corrupt — and sizes
// an allocation, so it is bounded at both doors. A snapshot hand-edited to
// ask for a 2^40-record ring (a well-formed frame: the CRC is recomputed)
// must fail Restore with the bound's message instead of allocating, and
// register nothing.
func TestTelemetryRecordsBounded(t *testing.T) {
	f := New(Config{Shards: 1})
	defer f.Close()
	if err := f.CreateTenant("edge", telemetryTenantConfig(maxTelemetryRecords)); err != nil {
		t.Fatalf("ring of exactly maxTelemetryRecords rejected: %v", err)
	}
	wantMsg := CheckTelemetryRecords(maxTelemetryRecords + 1).Error()
	err := f.CreateTenant("over", telemetryTenantConfig(maxTelemetryRecords+1))
	if err == nil || !strings.Contains(err.Error(), wantMsg) {
		t.Fatalf("oversized TelemetryRecords at create: %v, want %q", err, wantMsg)
	}
	if _, err := f.CloseTenant("edge"); err != nil {
		t.Fatal(err)
	}

	if err := f.CreateTenant("a", telemetryTenantConfig(64)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Observe("a", 500); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := f.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	snaps, err := f.captureAll(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("captured %d tenants, want 1", len(snaps))
	}
	snaps[0].Config.TelemetryRecords = 1 << 40
	var edited bytes.Buffer
	if _, _, err := writeBaseLog(&edited, snaps); err != nil {
		t.Fatal(err)
	}
	f2 := New(Config{Shards: 1})
	defer f2.Close()
	wantMsg = CheckTelemetryRecords(1 << 40).Error()
	if err := f2.Restore(&edited); err == nil || !strings.Contains(err.Error(), wantMsg) {
		t.Fatalf("restore of a snapshot asking for a 2^40-record ring: %v, want %q", err, wantMsg)
	}
	if n := f2.Stats().Tenants; n != 0 {
		t.Fatalf("failed restore registered %d tenants", n)
	}
	if err := f2.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("the unedited snapshot does not restore: %v", err)
	}
}
