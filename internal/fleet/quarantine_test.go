package fleet

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"hierctl/internal/cluster"
)

// panicCount is the magic observation count the test failpoint panics on.
const panicCount = 123456

func quarantineTenantConfig() TenantConfig {
	return TenantConfig{
		Spec:       cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2)}},
		Core:       fastCore(),
		Store:      testStoreConfig(),
		StoreSeed:  7,
		BinSeconds: 30,
	}
}

// panicFleet builds a fleet whose ObserveFailpoint panics on the magic
// count, simulating a tenant-local controller fault.
func panicFleet(t *testing.T, shards int) *Fleet {
	t.Helper()
	f := New(Config{Shards: shards, ObserveFailpoint: func(id string, count float64) {
		if count == panicCount {
			panic("injected tenant fault")
		}
	}})
	t.Cleanup(f.Close)
	return f
}

// TestQuarantineIsolatesTenant is the fault-isolation pin: a tenant whose
// controller stack panics is quarantined — subsequent stepping returns
// ErrTenantQuarantined, reads still work, close removes it — while
// sibling tenants, including ones on the same shard, keep stepping. Run
// under -race: the sibling observations race the panic on purpose.
func TestQuarantineIsolatesTenant(t *testing.T) {
	// 2 shards for 3 tenants forces at least one healthy tenant to share
	// the faulting tenant's shard goroutine.
	f := panicFleet(t, 2)
	tc := quarantineTenantConfig()
	for _, id := range []string{"bad", "good1", "good2"} {
		if err := f.CreateTenant(id, tc); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"bad", "good1", "good2"} {
		if _, err := f.Observe(id, 400); err != nil {
			t.Fatal(err)
		}
	}

	// Siblings step concurrently with the panic.
	var wg sync.WaitGroup
	for _, id := range []string{"good1", "good2"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if _, err := f.Observe(id, 500); err != nil {
					t.Errorf("sibling %s: %v", id, err)
					return
				}
			}
		}(id)
	}
	if _, err := f.Observe("bad", panicCount); !errors.Is(err, ErrTenantQuarantined) {
		t.Fatalf("panicking observation returned %v, want ErrTenantQuarantined", err)
	}
	wg.Wait()

	// The quarantine latch holds: stepping keeps failing without another
	// panic being counted, and the panicking bin was never logged.
	if _, err := f.Observe("bad", 400); !errors.Is(err, ErrTenantQuarantined) {
		t.Fatalf("post-quarantine observation returned %v, want ErrTenantQuarantined", err)
	}
	st, err := f.State("bad")
	if err != nil {
		t.Fatalf("State on quarantined tenant: %v", err)
	}
	if !st.Quarantined {
		t.Error("state does not report quarantine")
	}
	if st.Bins != 1 {
		t.Errorf("quarantined tenant logged %d bins, want 1 (the clean bin only)", st.Bins)
	}
	stats := f.Stats()
	if stats.Panics != 1 {
		t.Errorf("Stats.Panics = %d, want 1", stats.Panics)
	}
	if stats.Quarantined != 1 {
		t.Errorf("Stats.Quarantined = %d, want 1", stats.Quarantined)
	}

	// Batch entries on the quarantined tenant fail with the sentinel;
	// entries for healthy tenants in the same call apply.
	results, err := f.ObserveBatch([]BatchEntry{
		{Tenant: "bad", Counts: []float64{300}},
		{Tenant: "good1", Counts: []float64{300, 300}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, ErrTenantQuarantined) || results[0].Applied != 0 {
		t.Errorf("batch entry on quarantined tenant: applied %d err %v", results[0].Applied, results[0].Err)
	}
	if results[1].Err != nil || results[1].Applied != 2 {
		t.Errorf("batch entry on healthy sibling: applied %d err %v", results[1].Applied, results[1].Err)
	}

	// Close works: the tenant is removed (no drain, no record).
	rec, err := f.CloseTenant("bad")
	if !errors.Is(err, ErrTenantQuarantined) {
		t.Fatalf("CloseTenant returned %v, want ErrTenantQuarantined", err)
	}
	if rec != nil {
		t.Error("CloseTenant returned a record for an undrained tenant")
	}
	if _, err := f.State("bad"); !errors.Is(err, ErrNotFound) {
		t.Errorf("quarantined tenant still registered after close: %v", err)
	}
	if got := f.Stats().Quarantined; got != 0 {
		t.Errorf("Stats.Quarantined = %d after close, want 0", got)
	}

	// The healthy siblings were never disturbed.
	for _, id := range []string{"good1", "good2"} {
		if _, err := f.Observe(id, 450); err != nil {
			t.Errorf("sibling %s after close: %v", id, err)
		}
	}
}

// TestQuarantineMidBatch pins the batch semantics: a panic mid-entry
// stops the entry at the bins already applied, reports the sentinel, and
// the tenant's observation log holds exactly the clean prefix.
func TestQuarantineMidBatch(t *testing.T) {
	f := panicFleet(t, 1)
	if err := f.CreateTenant("a", quarantineTenantConfig()); err != nil {
		t.Fatal(err)
	}
	results, err := f.ObserveBatch([]BatchEntry{
		{Tenant: "a", Counts: []float64{400, panicCount, 400}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, ErrTenantQuarantined) {
		t.Fatalf("mid-batch panic reported %v, want ErrTenantQuarantined", results[0].Err)
	}
	if results[0].Applied != 1 {
		t.Errorf("entry applied %d bins, want 1 (the bin before the fault)", results[0].Applied)
	}
	st, err := f.State("a")
	if err != nil {
		t.Fatal(err)
	}
	if st.Bins != 1 || !st.Quarantined {
		t.Errorf("state bins=%d quarantined=%v, want 1/true", st.Bins, st.Quarantined)
	}
}

// TestQuarantineSnapshotRoundTrip pins persistence consistency: a
// quarantined tenant snapshots cleanly (its log ends at the last clean
// bin) and restores still quarantined, so a restart cannot resurrect a
// tenant the fault plan would re-panic.
func TestQuarantineSnapshotRoundTrip(t *testing.T) {
	f1 := panicFleet(t, 2)
	if err := f1.CreateTenant("a", quarantineTenantConfig()); err != nil {
		t.Fatal(err)
	}
	const cleanBins = 5
	for i := 0; i < cleanBins; i++ {
		if _, err := f1.Observe("a", 400); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f1.Observe("a", panicCount); !errors.Is(err, ErrTenantQuarantined) {
		t.Fatal("tenant did not quarantine")
	}
	var buf bytes.Buffer
	if err := f1.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot of quarantined tenant: %v", err)
	}

	f2 := New(Config{Shards: 2})
	defer f2.Close()
	if err := f2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	st, err := f2.State("a")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Quarantined {
		t.Error("restored tenant lost its quarantine latch")
	}
	if st.Bins != cleanBins {
		t.Errorf("restored tenant at %d bins, want %d", st.Bins, cleanBins)
	}
	if _, err := f2.Observe("a", 400); !errors.Is(err, ErrTenantQuarantined) {
		t.Errorf("restored tenant accepted stepping: %v", err)
	}
	if got := f2.Stats().Quarantined; got != 1 {
		t.Errorf("restored Stats.Quarantined = %d, want 1", got)
	}
}

// TestQuarantineJournalRecovery pins the journal path: the quarantine
// transition changes no observation count, so it must force a re-base —
// otherwise recovery would resurrect the tenant un-quarantined.
func TestQuarantineJournalRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.log")
	f1 := panicFleet(t, 1)
	j, err := OpenJournal(f1, path, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f1.CreateTenant("a", quarantineTenantConfig()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := f1.Observe("a", 400); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(); err != nil {
		t.Fatal(err)
	}
	if _, err := f1.Observe("a", panicCount); !errors.Is(err, ErrTenantQuarantined) {
		t.Fatal("tenant did not quarantine")
	}
	// The transition alone must be journaled even with zero new bins.
	if err := j.Append(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	f2 := New(Config{Shards: 1})
	defer f2.Close()
	j2, err := OpenJournal(f2, path, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	st, err := f2.State("a")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Quarantined {
		t.Error("journal recovery lost the quarantine latch")
	}
	if st.Bins != 4 {
		t.Errorf("recovered tenant at %d bins, want 4", st.Bins)
	}
}

// haltAfterBin arms tenant id of f to panic after the last tick of its bin
// bin: the clock stands at the bin boundary and the bin is not done — the
// fault that halts a session mid-bin (see haltState).
func haltAfterBin(t testing.TB, f *Fleet, id string, bin int) {
	t.Helper()
	tn, err := f.tenant(id)
	if err != nil {
		t.Fatal(err)
	}
	last := (bin+1)*tn.sub - 1
	tn.mgr.SetObserveFailpoint(func(k int) {
		if k == last {
			panic("injected fault after the bin's last tick")
		}
	})
}

// TestHaltedTenantPersists pins a tenant whose step panicked inside its
// bin, after the bin's last tick: it is quarantined and reports its last
// clean bin, and a journal recovery and a snapshot restore bring it back
// reporting the same — beside a healthy tenant, whose restore it must not
// block — and the restored fleet is the uninterrupted one (sameFleets).
func TestHaltedTenantPersists(t *testing.T) {
	path := journalPath(t)
	f := panicFleet(t, 2)
	j, err := OpenJournal(f, path, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "ok"} {
		if err := f.CreateTenant(id, quarantineTenantConfig()); err != nil {
			t.Fatal(err)
		}
	}
	const cleanBins = 3
	var last TenantState
	for b := 0; b < cleanBins; b++ {
		for _, id := range []string{"a", "ok"} {
			if _, err := f.Observe(id, 400); err != nil {
				t.Fatal(err)
			}
		}
	}
	if last, err = f.State("a"); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(); err != nil {
		t.Fatal(err)
	}
	haltAfterBin(t, f, "a", cleanBins)
	if _, err := f.Observe("a", 400); !errors.Is(err, ErrTenantQuarantined) {
		t.Fatalf("halting step returned %v, want ErrTenantQuarantined", err)
	}
	if _, err := f.Observe("ok", 400); err != nil {
		t.Fatal(err)
	}
	halted, err := f.State("a")
	if err != nil {
		t.Fatal(err)
	}
	last.Quarantined = true
	if !reflect.DeepEqual(halted, last) {
		t.Fatalf("halted tenant reports\n%+v\nwant its last clean bin\n%+v", halted, last)
	}
	if err := j.Append(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := panicFleet(t, 1)
	j2, err := OpenJournal(recovered, path, JournalConfig{})
	if err != nil {
		t.Fatalf("journal recovery: %v", err)
	}
	defer j2.Close()
	for _, id := range []string{"a", "ok"} {
		want, _ := f.State(id)
		if got, err := recovered.State(id); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("journal-recovered tenant %s: %+v (%v), want %+v", id, got, err, want)
		}
	}

	var snap bytes.Buffer
	if err := f.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored := panicFleet(t, 1)
	if err := restored.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	var again bytes.Buffer
	if err := restored.Snapshot(&again); err != nil || !bytes.Equal(again.Bytes(), snap.Bytes()) {
		t.Fatalf("the restored fleet snapshots to %d other bytes (err %v)", again.Len(), err)
	}
	if got := restored.Stats().Quarantined; got != 1 {
		t.Errorf("restored Stats.Quarantined = %d, want 1", got)
	}
	sameFleets(t, f, restored, cleanBins+1, 3)
}
