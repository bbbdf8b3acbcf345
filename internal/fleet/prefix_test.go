package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"reflect"
	"testing"

	"hierctl/internal/controller"
	"hierctl/internal/par"
)

// prefixTenantConfig is quarantineTenantConfig on a learning grid of 18
// cells, so the journal the every-prefix suite cuts is a few KB and every
// one of its byte offsets can be restored.
func prefixTenantConfig(storeSeed int64) TenantConfig {
	tc := quarantineTenantConfig()
	tc.StoreSeed = storeSeed
	tc.Core.GMap = controller.GMapConfig{
		QMax: 50, QStep: 25,
		LambdaMax: 30, LambdaStep: 15,
		CMin: 0.014, CMax: 0.018, CStep: 0.004,
		SubSteps: 2,
	}
	return tc
}

// durablePoint is the journal file's length after an Append returned and
// what the live fleet reported then.
type durablePoint struct {
	size   int
	states map[string]TenantState
}

// fleetStates reports every tenant's state by id.
func fleetStates(t *testing.T, f *Fleet) map[string]TenantState {
	t.Helper()
	out := map[string]TenantState{}
	for _, st := range f.States() {
		out[st.ID] = st
	}
	return out
}

// buildPrefixJournal writes the journal the every-prefix suite attacks:
// tenants a and b, written by a compaction (the file the earlier deltas
// went to is replaced) behind the log's segment start, then delta appends
// on the same stream; then an append that fails after writing its frames
// and is cut away, so the one after it — a delta for a and the re-base of
// b quarantined by a halt (a panic after its bin's last tick, see
// haltState) — continues the stream; and a last delta for a. It returns the log and every durable point the file
// passed after the compaction. With stop > 0 it stops at the stop-th
// durable point and also returns the live fleet there.
func buildPrefixJournal(t *testing.T, stop int) ([]byte, []durablePoint, *Fleet) {
	t.Helper()
	path := journalPath(t)
	f := panicFleet(t, 2)
	for i, id := range []string{"a", "b"} {
		if err := f.CreateTenant(id, prefixTenantConfig(int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	j, err := OpenJournal(f, path, JournalConfig{CompactFactor: 1e9, MaxAppends: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	observe := func(id string, counts ...float64) {
		t.Helper()
		for _, c := range counts {
			if _, err := f.Observe(id, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	var points []durablePoint
	// Each step ends at a durable point.
	steps := []func() error{
		func() error {
			observe("a", 200, 250)
			observe("b", 300)
			if err := j.Append(); err != nil {
				return err
			}
			observe("a", 150)
			return j.Compact()
		},
		func() error {
			observe("a", 220, 180)
			observe("b", 260, 240)
			return j.Append()
		},
		func() error {
			haltAfterBin(t, f, "b", 3)
			if _, err := f.Observe("b", 280); !errors.Is(err, ErrTenantQuarantined) {
				t.Fatalf("tenant b did not quarantine: %v", err)
			}
			observe("a", 210)
			j.hookAfterFrames = func() error { return errCrash }
			if err := j.Append(); !errors.Is(err, errCrash) {
				t.Fatalf("append with a failing hook: %v, want the injected crash", err)
			}
			j.hookAfterFrames = nil
			return j.Append()
		},
		func() error {
			observe("a", 190)
			return j.Append()
		},
	}
	var data []byte
	for _, step := range steps {
		if err := step(); err != nil {
			t.Fatal(err)
		}
		if data, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		points = append(points, durablePoint{size: len(data), states: fleetStates(t, f)})
		if len(points) == stop {
			break
		}
	}
	return data, points, f
}

// frameEnds walks the log's frame headers on its own — without the reader
// under test — and returns the offset just past the magic and past every
// complete frame, in order.
func frameEnds(t *testing.T, log []byte) []int {
	t.Helper()
	ends := []int{len(snapshotMagic)}
	for off := len(snapshotMagic); off < len(log); {
		if off+8 > len(log) {
			t.Fatalf("log ends in a partial header at %d", off)
		}
		off += 8 + int(binary.LittleEndian.Uint32(log[off:]))
		if off > len(log) {
			t.Fatalf("frame past the log's end at %d", off)
		}
		ends = append(ends, off)
	}
	return ends
}

// errPartialRestore marks a refused recovery that registered tenants anyway.
var errPartialRestore = errors.New("failed recovery left tenants registered")

// recoverStates runs the journal's recovery read (torn-tolerant restore)
// over log on a fresh fleet and reports the tenants it registered. Safe to
// call off the test goroutine.
func recoverStates(log []byte) (map[string]TenantState, error) {
	f := New(Config{Shards: 1})
	defer f.Close()
	if err := f.restoreLog(bytes.NewReader(log), true); err != nil {
		if len(f.Tenants()) != 0 {
			return nil, errPartialRestore
		}
		return nil, err
	}
	out := map[string]TenantState{}
	for _, st := range f.States() {
		out[st.ID] = st
	}
	return out, nil
}

// TestJournalEveryPrefixRecovers cuts the journal at every byte offset.
// Recovery must then restore exactly what the complete frames before the
// cut hold — the same tenants, each in the state the strict read of that
// frame prefix gives, which at every durable point is the state the live
// fleet reported — or, for a cut inside the magic, refuse. A partial frame
// never contributes a tenant or a bin. OpenJournal itself, compaction
// included, recovers one cut inside every frame.
func TestJournalEveryPrefixRecovers(t *testing.T) {
	log, points, _ := buildPrefixJournal(t, 0)
	ends := frameEnds(t, log)
	// want[k] is the state the strict read of the first k frames gives.
	want := make([]map[string]TenantState, len(ends))
	for k, end := range ends {
		f := New(Config{Shards: 1})
		if err := f.Restore(bytes.NewReader(log[:end])); err != nil {
			f.Close()
			t.Fatalf("strict restore of %d frames: %v", k, err)
		}
		want[k] = fleetStates(t, f)
		f.Close()
	}
	for _, p := range points {
		k := 0
		for k < len(ends) && ends[k] != p.size {
			k++
		}
		if k == len(ends) {
			t.Fatalf("durable point at %d bytes is not a frame boundary", p.size)
		}
		if !reflect.DeepEqual(want[k], p.states) {
			t.Fatalf("log through %d bytes restores to %+v; the live fleet reported %+v", p.size, want[k], p.states)
		}
	}

	cuts := len(log) + 1
	errs := make([]error, cuts)
	par.For(par.Workers(0), cuts, func(cut int) error {
		got, err := recoverStates(log[:cut])
		switch {
		case cut == 0:
			// An empty file is a fresh journal: OpenJournal never reads it.
		case errors.Is(err, errPartialRestore):
			errs[cut] = err
		case cut < len(snapshotMagic):
			if err == nil {
				errs[cut] = errors.New("recovered a log cut inside its magic")
			}
		case err != nil:
			errs[cut] = err
		default:
			k := 0
			for k+1 < len(ends) && ends[k+1] <= cut {
				k++
			}
			if !reflect.DeepEqual(got, want[k]) {
				errs[cut] = errors.New("recovered state is not the state of the complete frames before the cut")
			}
		}
		return nil
	})
	for cut, err := range errs {
		if err != nil {
			t.Fatalf("log cut at byte %d of %d: %v", cut, len(log), err)
		}
	}

	for k := 1; k < len(ends); k++ {
		cut := (ends[k-1] + ends[k]) / 2
		path := journalPath(t)
		if err := os.WriteFile(path, log[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		f := New(Config{Shards: 1})
		j, err := OpenJournal(f, path, JournalConfig{})
		if err != nil {
			f.Close()
			t.Fatalf("OpenJournal of a log torn inside frame %d: %v", k, err)
		}
		got := fleetStates(t, f)
		j.Close()
		f.Close()
		if !reflect.DeepEqual(got, want[k-1]) {
			t.Fatalf("OpenJournal of a log torn inside frame %d: %+v, want %+v", k, got, want[k-1])
		}
	}
}

// TestJournalDroppedOrDuplicatedFrame removes, and separately repeats, each
// whole frame of the journal. The segment start, its first frame, is the
// exception to both rules below: missing or repeated, the log is refused,
// since no other frame may open or reopen its gob stream. Any other
// repeated frame changes nothing: recovery restores the full log's state.
// Any other missing frame either fails the read loudly or leaves each
// tenant in a state it held at some frame boundary of the real log — never
// one assembled from frames that do not follow.
func TestJournalDroppedOrDuplicatedFrame(t *testing.T) {
	log, _, _ := buildPrefixJournal(t, 0)
	ends := frameEnds(t, log)
	held := map[string][]TenantState{}
	for _, end := range ends {
		states, err := recoverStates(log[:end])
		if err != nil {
			t.Fatal(err)
		}
		for id, st := range states {
			held[id] = append(held[id], st)
		}
	}
	full, err := recoverStates(log)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < len(ends); k++ {
		frame := log[ends[k-1]:ends[k]]
		dup := append(append(append([]byte(nil), log[:ends[k]]...), frame...), log[ends[k]:]...)
		drop := append(append([]byte(nil), log[:ends[k-1]]...), log[ends[k]:]...)
		if k == 1 {
			for name, data := range map[string][]byte{"repeated": dup, "dropped": drop} {
				if _, err := recoverStates(data); err == nil || errors.Is(err, errPartialRestore) {
					t.Fatalf("segment start %s: recovery says %v, want the log refused", name, err)
				}
			}
			continue
		}
		got, err := recoverStates(dup)
		if err != nil {
			t.Fatalf("frame %d repeated: %v", k, err)
		}
		if !reflect.DeepEqual(got, full) {
			t.Fatalf("frame %d repeated: recovered %+v, want the full log's %+v", k, got, full)
		}

		got, err = recoverStates(drop)
		if errors.Is(err, errPartialRestore) {
			t.Fatalf("frame %d dropped: %v", k, err)
		}
		if err != nil {
			continue // refused loudly
		}
		for id, st := range got {
			ok := false
			for _, h := range held[id] {
				ok = ok || reflect.DeepEqual(st, h)
			}
			if !ok {
				t.Fatalf("frame %d dropped: tenant %s recovered to %+v, a state it never held", k, id, st)
			}
		}
	}
}

// TestJournalCrashRecoveryEqualsUninterrupted runs the checkpoint property
// over the journal: a process that dies at any durable point of the
// every-prefix journal recovers, through OpenJournal, to the fleet that
// kept running — the same states and telemetry cursors, then the same
// decisions, records and close records (see sameFleets), the halted
// tenant included.
func TestJournalCrashRecoveryEqualsUninterrupted(t *testing.T) {
	_, points, _ := buildPrefixJournal(t, 0)
	for stop := 1; stop <= len(points); stop++ {
		log, _, live := buildPrefixJournal(t, stop)
		path := journalPath(t)
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		recovered := panicFleet(t, 1)
		j, err := OpenJournal(recovered, path, JournalConfig{})
		if err != nil {
			t.Fatalf("durable point %d: %v", stop, err)
		}
		sameFleets(t, live, recovered, 0, 3)
		j.Close()
	}
}
