package fleet

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"hierctl/internal/cluster"
	"hierctl/internal/core"
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
	snaps, err := f.captureAll(nil)
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

// recordTally counts recs the way a step counts its decisions, without the
// buckets: one decision per L0 record and per L1 and L2 summary record,
// and the tick records' counters.
func recordTally(recs []obs.Record) core.Tally {
	var tl core.Tally
	for _, r := range recs {
		switch {
		case r.Level == obs.LevelTick:
			if r.QoS {
				tl.QoSViolations++
			}
			if r.Degraded {
				tl.DegradedTicks++
			}
			tl.StaleObservations += uint64(r.Stale)
		case r.Level == obs.LevelL0, r.Level == obs.LevelL1 && r.Comp == -1, r.Level == obs.LevelL2 && r.Module == -1:
			lv := &tl.Levels[r.Level-obs.LevelL0]
			lv.Decisions++
			lv.DecideNs += r.DecideNs
			lv.Explored += int64(r.Explored)
		}
	}
	return tl
}

// tallyGain is what after counted beyond before. Without timed, the
// wall-clock fields are zeroed; without buckets, the buckets are.
func tallyGain(after, before core.Tally, timed, buckets bool) core.Tally {
	d := after
	for l := range d.Levels {
		lv, b := &d.Levels[l], &before.Levels[l]
		lv.Decisions -= b.Decisions
		lv.DecideNs -= b.DecideNs
		lv.Explored -= b.Explored
		for i := range lv.DecideBuckets {
			lv.DecideBuckets[i] -= b.DecideBuckets[i]
		}
		for i := range lv.ExploredBuckets {
			lv.ExploredBuckets[i] -= b.ExploredBuckets[i]
		}
		if !timed {
			lv.DecideNs = 0
			clear(lv.DecideBuckets[:])
		}
		if !buckets {
			clear(lv.DecideBuckets[:])
			clear(lv.ExploredBuckets[:])
		}
	}
	d.QoSViolations -= before.QoSViolations
	d.DegradedTicks -= before.DegradedTicks
	d.StaleObservations -= before.StaleObservations
	return d
}

// TestRestoredHistoryIsNotCounted: a restore replays a tenant's
// checkpointed bins, which is reconstruction, not work the restoring fleet
// did. Its Stats count nothing after the restore, and one more
// bin adds exactly what the same bin added in the original fleet, up to
// the wall-clock latency.
func TestRestoredHistoryIsNotCounted(t *testing.T) {
	f1 := New(Config{Shards: 1})
	defer f1.Close()
	if err := f1.CreateTenant("a", telemetryTenantConfig(64)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := f1.Observe("a", 600+50*float64(i)); err != nil {
			t.Fatal(err)
		}
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
	if got := f2.Stats().Tally; got != (core.Tally{}) {
		t.Fatalf("the restore counted the replayed history: %+v", got)
	}
	before := f1.Stats().Tally
	for _, f := range []*Fleet{f1, f2} {
		if _, err := f.Observe("a", 3000); err != nil {
			t.Fatal(err)
		}
	}
	want := tallyGain(f1.Stats().Tally, before, false, true)
	got := tallyGain(f2.Stats().Tally, core.Tally{}, false, true)
	if got != want {
		t.Errorf("the restored fleet's bin counted\n%+v\nthe original's\n%+v", got, want)
	}
	if want.Levels[0].Decisions == 0 || want.QoSViolations == 0 {
		t.Errorf("the bin counted nothing to compare: %+v", want)
	}
}

// TestHaltedBinCountsForItsTenant: a step that stops mid-bin has decided
// part of the bin. Those decisions count, and for the tenant that made
// them: the fleet totals and the tenant's ranking hold exactly what its
// flight records show, and the next tenant stepped on the same shard adds
// only its own bin's decisions.
func TestHaltedBinCountsForItsTenant(t *testing.T) {
	f := New(Config{Shards: 1})
	defer f.Close()
	tc := quarantineTenantConfig()
	tc.TelemetryRecords = 1 << 12
	for _, id := range []string{"a", "b"} {
		if err := f.CreateTenant(id, tc); err != nil {
			t.Fatal(err)
		}
	}
	const cleanBins = 2
	for b := 0; b < cleanBins; b++ {
		for _, id := range []string{"a", "b"} {
			if _, err := f.Observe(id, 3000); err != nil {
				t.Fatal(err)
			}
		}
	}
	clean := f.Stats()
	haltAfterBin(t, f, "a", cleanBins)
	if _, err := f.Observe("a", 3000); !errors.Is(err, ErrTenantQuarantined) {
		t.Fatalf("observe into the armed fault: %v, want ErrTenantQuarantined", err)
	}
	recsA, _, err := f.Telemetry("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	recsB, cursorB, err := f.Telemetry("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	fromA, fromB := recordTally(recsA), recordTally(recsB)
	want := fromA
	want.Add(&fromB)
	sum := f.Stats()
	if got := tallyGain(sum.Tally, core.Tally{}, true, false); got != want {
		t.Fatalf("after a halted bin the totals hold\n%+v\nthe flight records\n%+v", got, want)
	}
	if n, was := rankedCount(&sum.Top.QoS, "a"), rankedCount(&clean.Top.QoS, "a"); n != fromA.QoSViolations || n <= was {
		t.Errorf("tenant a ranks at %d QoS violations (%d after its clean bins), its records show %d", n, was, fromA.QoSViolations)
	}

	before := sum.Tally
	if _, err := f.Observe("b", 3000); err != nil {
		t.Fatal(err)
	}
	newB, _, err := f.TelemetrySince("b", cursorB)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tallyGain(f.Stats().Tally, before, true, false), recordTally(newB); got != want || want.Levels[0].Decisions == 0 {
		t.Errorf("tenant b's next bin counted\n%+v\nits flight records\n%+v", got, want)
	}
}

// rankedCount is id's count in top, 0 if it is not ranked.
func rankedCount(top *TopTenants, id string) uint64 {
	for _, e := range top {
		if e.ID == id {
			return e.Count
		}
	}
	return 0
}
