package fleet

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"hierctl/internal/cluster"
	"hierctl/internal/core"
	"hierctl/internal/workload"
)

// checkpointBins are the counts the fleet checkpoint property drives: low
// enough at first for the L1s to power computers down, then high enough to
// boot them back.
func checkpointBins(bin int) float64 {
	if bin < 6 {
		return 150
	}
	return 2600
}

// sameFleets is the checkpoint property's comparison: restored, a fleet is
// the uninterrupted one. Every tenant's State and telemetry cursor agree
// now; the next k bins decide alike (or fail alike, as a quarantined
// tenant's do) and write the same flight records past the cursor; and
// closing gives the same record. Both fleets step and close their
// tenants.
func sameFleets(t *testing.T, live, restored *Fleet, from, k int) {
	t.Helper()
	ids := live.Tenants()
	if got := restored.Tenants(); !reflect.DeepEqual(got, ids) {
		t.Fatalf("restored tenants %v, want %v", got, ids)
	}
	for _, id := range ids {
		st1, err1 := live.State(id)
		st2, err2 := restored.State(id)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(st1, st2) {
			t.Fatalf("tenant %s state:\nrestored %+v (%v)\nwant     %+v (%v)", id, st2, err2, st1, err1)
		}
		_, cur1, _ := live.Telemetry(id, 0)
		_, cur2, _ := restored.Telemetry(id, 0)
		if cur1 != cur2 {
			t.Fatalf("tenant %s telemetry cursor %d, want %d", id, cur2, cur1)
		}
		for b := from; b < from+k; b++ {
			d1, err1 := live.Observe(id, checkpointBins(b))
			d2, err2 := restored.Observe(id, checkpointBins(b))
			if !sameErr(err1, err2) {
				t.Fatalf("tenant %s bin %d: error %v, want %v", id, b, err2, err1)
			}
			if !reflect.DeepEqual(d1, d2) {
				t.Fatalf("tenant %s bin %d: decision\n%+v\nwant\n%+v", id, b, d2, d1)
			}
		}
		r1, next1, _ := live.TelemetrySince(id, cur1)
		r2, next2, _ := restored.TelemetrySince(id, cur1)
		if next1 != next2 || len(r1) != len(r2) {
			t.Fatalf("tenant %s: %d records to cursor %d, want %d to %d", id, len(r2), next2, len(r1), next1)
		}
		for i := range r1 {
			r1[i].DecideNs, r2[i].DecideNs = 0, 0
			if r1[i] != r2[i] {
				t.Fatalf("tenant %s record %d: %+v, want %+v", id, i, r2[i], r1[i])
			}
		}
		rec1, err1 := live.CloseTenant(id)
		rec2, err2 := restored.CloseTenant(id)
		if !sameErr(err1, err2) {
			t.Fatalf("tenant %s close: %v, want %v", id, err2, err1)
		}
		for _, r := range []*core.Record{rec1, rec2} {
			if r != nil {
				r.DecideTime, r.LearnTime = 0, 0
			}
		}
		if !reflect.DeepEqual(rec1, rec2) {
			t.Fatalf("tenant %s close record\n%+v\nwant\n%+v", id, rec2, rec1)
		}
	}
}

// sameErr reports whether two operations failed alike: neither, or both,
// both quarantined or neither.
func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && errors.Is(a, ErrTenantQuarantined) == errors.Is(b, ErrTenantQuarantined)
}

// checkpointFleet creates the property's tenants on a fleet whose
// failpoint quarantines on panicCount: "plan", two modules (the L2
// decides) under a failure plan with a recorder; "quar", quarantined at
// its third bin; "halt", with a recorder, halted inside its fifth (see
// armCheckpointHalt); "boot", four computers that power down and boot
// again.
func checkpointFleet(t *testing.T) *Fleet {
	t.Helper()
	f := panicFleet(t, 2)
	plan := telemetryTenantConfig(512)
	plan.Failures = []workload.FailureEvent{{At: 90, Module: 1, Comp: 1}, {At: 300, Module: 1, Comp: 1, Repair: true}}
	boot := quarantineTenantConfig()
	boot.Spec = cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 4)}}
	boot.TelemetryRecords = 64
	halt := quarantineTenantConfig()
	halt.TelemetryRecords = 64
	for id, tc := range map[string]TenantConfig{"plan": plan, "quar": quarantineTenantConfig(), "halt": halt, "boot": boot} {
		if err := f.CreateTenant(id, tc); err != nil {
			t.Fatal(err)
		}
	}
	armCheckpointHalt(t, f)
	return f
}

// armCheckpointHalt arms f's "halt" tenant to panic after the last tick of
// bin 4. A restored fleet is armed again: a tenant restored before its
// halt must halt where the live one does, and one restored halted never
// steps.
func armCheckpointHalt(t *testing.T, f *Fleet) { haltAfterBin(t, f, "halt", 4) }

// stepCheckpointFleet applies bins [from, to) to every tenant; "quar"
// panics on bin 2, "halt" inside bin 4.
func stepCheckpointFleet(t *testing.T, f *Fleet, from, to int) {
	t.Helper()
	for b := from; b < to; b++ {
		for _, id := range []string{"boot", "halt", "plan", "quar"} {
			count := checkpointBins(b)
			if id == "quar" && b == 2 {
				count = panicCount
			}
			if _, err := f.Observe(id, count); err != nil && !errors.Is(err, ErrTenantQuarantined) {
				t.Fatal(err)
			}
		}
	}
}

// TestCheckpointRestoreEqualsUninterrupted is the fleet's checkpoint
// property: snapshot at any bin — before the first, with a tenant
// quarantined, with one halted mid-bin, mid-failure-plan, with computers
// booting — restore, and the
// restored fleet is the uninterrupted one (see sameFleets). The snapshot
// of the restored fleet is the snapshot it was restored from, byte for
// byte.
//
//hpm:pin checkpoint
func TestCheckpointRestoreEqualsUninterrupted(t *testing.T) {
	for _, cut := range []int{0, 2, 5, 8, 11} {
		live := checkpointFleet(t)
		stepCheckpointFleet(t, live, 0, cut)
		var snap bytes.Buffer
		if err := live.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		restored := panicFleet(t, 1)
		if err := restored.Restore(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		armCheckpointHalt(t, restored)
		var again bytes.Buffer
		if err := restored.Snapshot(&again); err != nil || !bytes.Equal(again.Bytes(), snap.Bytes()) {
			t.Fatalf("cut %d: the restored fleet snapshots to %d other bytes (err %v)", cut, again.Len(), err)
		}
		sameFleets(t, live, restored, cut, 5)
	}
}
