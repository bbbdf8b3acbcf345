package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hierctl/internal/core"
)

var errCrash = errors.New("injected crash")

func journalPath(t *testing.T) string {
	return filepath.Join(t.TempDir(), "fleet.journal")
}

// TestJournalAppendCompactCycle drives the journal through its whole
// life: base on open, deltas on append, removes for closed tenants, a
// policy-triggered compaction, and a reopen that restores the end state.
func TestJournalAppendCompactCycle(t *testing.T) {
	path := journalPath(t)
	f := New(Config{Shards: 2})
	defer f.Close()
	for _, id := range []string{"a", "b"} {
		if err := f.CreateTenant(id, batchTenantConfig(1)); err != nil {
			t.Fatal(err)
		}
	}
	j, err := OpenJournal(f, path, JournalConfig{MaxAppends: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	st := j.Stats()
	if st.BaseBytes == 0 || st.TailBytes != 0 || st.Compactions != 1 {
		t.Fatalf("after open: %+v", st)
	}

	for i := 0; i < 4; i++ {
		if _, err := f.Observe("a", 200); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.TailBytes == 0 || st.Appends != 1 {
		t.Fatalf("delta append not recorded: %+v", st)
	}
	// An append with nothing new writes nothing (but still ages).
	if err := j.Append(); err != nil {
		t.Fatal(err)
	}
	tail := j.Stats().TailBytes
	if got := j.Stats(); got.Appends != 2 || got.TailBytes != tail {
		t.Fatalf("empty append changed the log: %+v", got)
	}

	// Close a tenant and create another: remove + base frames.
	if _, err := f.CloseTenant("b"); err != nil {
		t.Fatal(err)
	}
	if err := f.CreateTenant("c", batchTenantConfig(2)); err != nil {
		t.Fatal(err)
	}
	// Third append hits MaxAppends and compacts.
	if err := j.Append(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Compactions != 2 || st.TailBytes != 0 || st.Appends != 0 {
		t.Fatalf("age-triggered compaction missing: %+v", st)
	}

	// Reopen into a fresh fleet: a with 4 bins, c with 0, no b.
	f2 := New(Config{Shards: 2})
	defer f2.Close()
	j2, err := OpenJournal(f2, path, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := f2.Tenants(); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Fatalf("restored tenants %v, want [a c]", got)
	}
	sta, err := f2.State("a")
	if err != nil {
		t.Fatal(err)
	}
	if sta.Bins != 4 {
		t.Fatalf("tenant a restored at %d bins, want 4", sta.Bins)
	}
}

// TestJournalSizeTriggeredCompaction: a tail outgrowing
// CompactFactor × base forces a rewrite.
func TestJournalSizeTriggeredCompaction(t *testing.T) {
	f := New(Config{Shards: 1})
	defer f.Close()
	if err := f.CreateTenant("a", batchTenantConfig(1)); err != nil {
		t.Fatal(err)
	}
	// A tiny factor means the first non-empty delta exceeds the bound.
	j, err := OpenJournal(f, journalPath(t), JournalConfig{CompactFactor: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := f.Observe("a", 200); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Compactions != 2 || st.TailBytes != 0 {
		t.Fatalf("size-triggered compaction missing: %+v", st)
	}
}

// TestJournalCloseRecreateSameID: closing a tenant and recreating one
// under the same id between two Appends is a new incarnation, not growth
// of the old one — the journal must retire the old state (remove frame)
// and re-base, never graft the new observation log onto the old base.
// The new incarnation's log is deliberately shorter than the old mark,
// the case an id-keyed journal would skip entirely.
func TestJournalCloseRecreateSameID(t *testing.T) {
	path := journalPath(t)
	f := New(Config{Shards: 1})
	defer f.Close()
	if err := f.CreateTenant("a", batchTenantConfig(1)); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(f, path, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{200, 250, 150} {
		if _, err := f.Observe("a", c); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(); err != nil {
		t.Fatal(err)
	}

	// New incarnation under the same id: different store seed, one bin —
	// shorter than the old incarnation's journaled three.
	if _, err := f.CloseTenant("a"); err != nil {
		t.Fatal(err)
	}
	if err := f.CreateTenant("a", batchTenantConfig(9)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Observe("a", 300); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(); err != nil {
		t.Fatal(err)
	}
	j.Close()

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
	if st.Bins != 1 {
		t.Fatalf("recovered %d bins, want the new incarnation's 1", st.Bins)
	}
	// The restored tenant must be the *new* incarnation (config and all):
	// its next decision matches the survivor's.
	want, err := f.Observe("a", 225)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f2.Observe("a", 225)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-recovery decision diverged:\nsurvivor %+v\nrecovered %+v", want, got)
	}
}

// TestJournalFailedAppendTruncates: a write failure mid-append must not
// leave garbage in the middle of the log — the file is truncated back to
// its pre-append offset, the marks stay put, and the next successful
// Append re-sends (and durably lands) the same observations.
func TestJournalFailedAppendTruncates(t *testing.T) {
	path := journalPath(t)
	f := New(Config{Shards: 1})
	defer f.Close()
	if err := f.CreateTenant("a", batchTenantConfig(1)); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(f, path, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{200, 250} {
		if _, err := f.Observe("a", c); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := f.Observe("a", 150); err != nil {
		t.Fatal(err)
	}
	j.hookAfterFrames = func() error { return errCrash } // frames written, not yet synced
	if err := j.Append(); !errors.Is(err, errCrash) {
		t.Fatalf("append: got %v, want injected failure", err)
	}
	j.hookAfterFrames = nil
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("failed append left %d bytes, want truncation back to %d", after.Size(), before.Size())
	}

	// The journal stays usable: the un-journaled bin lands on retry and a
	// reopen restores all three.
	if err := j.Append(); err != nil {
		t.Fatal(err)
	}
	j.Close()
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
	if st.Bins != 3 {
		t.Fatalf("recovered %d bins, want 3", st.Bins)
	}
}

// TestJournalCrashAfterAppendRestores is the crash invariant's pin: the
// process dies after a delta append but before the next compaction, and
// recovery must hold exactly the appended observations — none lost, none
// double-applied — with the restored fleet's next decisions bit-identical
// to the survivor's.
func TestJournalCrashAfterAppendRestores(t *testing.T) {
	path := journalPath(t)
	f := New(Config{Shards: 1})
	defer f.Close()
	if err := f.CreateTenant("a", batchTenantConfig(1)); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(f, path, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	counts := []float64{200, 250, 150, 300, 225, 175}
	for _, c := range counts[:4] {
		if _, err := f.Observe("a", c); err != nil {
			t.Fatal(err)
		}
	}
	j.hookAfterAppend = func() error { return errCrash } // die before the compaction check
	if err := j.Append(); !errors.Is(err, errCrash) {
		t.Fatalf("append: got %v, want injected crash", err)
	}
	j.Close()

	// Bins 4 and 5 happen only on the survivor, after the last durable
	// append — the restored fleet must reproduce their decisions from
	// the same counts.
	var want []core.BinDecision
	for _, c := range counts[4:] {
		dec, err := f.Observe("a", c)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, dec)
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
	if st.Bins != 4 {
		t.Fatalf("recovered %d bins, want exactly the 4 appended", st.Bins)
	}
	for i, c := range counts[4:] {
		dec, err := f2.Observe("a", c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec, want[i]) {
			t.Fatalf("post-recovery decision %d diverged:\nsurvivor %+v\nrecovered %+v", i, want[i], dec)
		}
	}
}

// TestJournalCrashDuringCompactKeepsOldLog: a crash after the new base
// is written but before the rename swap must leave the old log — base
// plus its deltas — fully restorable.
func TestJournalCrashDuringCompactKeepsOldLog(t *testing.T) {
	path := journalPath(t)
	f := New(Config{Shards: 1})
	defer f.Close()
	if err := f.CreateTenant("a", batchTenantConfig(1)); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(f, path, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Observe("a", 200); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(); err != nil {
		t.Fatal(err)
	}
	j.hookBeforeSwap = func() error { return errCrash }
	if err := j.Compact(); !errors.Is(err, errCrash) {
		t.Fatalf("compact: got %v, want injected crash", err)
	}
	j.Close()

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
	if st.Bins != 3 {
		t.Fatalf("recovered %d bins, want 3", st.Bins)
	}
}

// TestJournalTornTailRecovers: a log truncated mid-frame (torn final
// write) recovers to the last complete frame on the journal path, while
// strict Restore rejects it.
func TestJournalTornTailRecovers(t *testing.T) {
	path := journalPath(t)
	f := New(Config{Shards: 1})
	defer f.Close()
	if err := f.CreateTenant("a", batchTenantConfig(1)); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(f, path, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := f.Observe("a", 200); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	grown, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(grown) <= len(whole) {
		t.Fatal("append grew nothing")
	}
	// Tear the delta frame: cut inside the appended suffix.
	torn := grown[:len(whole)+(len(grown)-len(whole))/2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := New(Config{Shards: 1}).Restore(bytes.NewReader(torn)); err == nil ||
		!strings.Contains(err.Error(), "truncated") {
		t.Fatalf("strict restore of torn log: got %v, want truncation error", err)
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
	if st.Bins != 0 {
		t.Fatalf("torn tail leaked %d bins into recovery, want 0", st.Bins)
	}
}

// TestJournalReplayedDeltaIsIdempotent: a delta frame re-sent after a
// crash between the durable write and the mark update overlaps the
// assembled log; replay must apply the overlap once.
func TestJournalReplayedDeltaIsIdempotent(t *testing.T) {
	f := New(Config{Shards: 1})
	defer f.Close()
	if err := f.CreateTenant("a", batchTenantConfig(1)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{200, 250, 150} {
		if _, err := f.Observe("a", c); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := f.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Re-send bins 1-2 (already in the base) plus a new bin 3.
	if _, err := (&frameWriter{w: &buf}).frame(&logFrame{
		Kind: frameDelta, ID: "a", From: 1, Counts: []float64{250, 150, 300},
	}); err != nil {
		t.Fatal(err)
	}
	f2 := New(Config{Shards: 1})
	defer f2.Close()
	if err := f2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	st, err := f2.State("a")
	if err != nil {
		t.Fatal(err)
	}
	if st.Bins != 4 {
		t.Fatalf("overlapping delta replayed to %d bins, want 4", st.Bins)
	}

	// A gap, by contrast, means lost frames: hard error.
	var gapped bytes.Buffer
	if err := f2.Snapshot(&gapped); err != nil {
		t.Fatal(err)
	}
	if _, err := (&frameWriter{w: &gapped}).frame(&logFrame{
		Kind: frameDelta, ID: "a", From: 9, Counts: []float64{100},
	}); err != nil {
		t.Fatal(err)
	}
	if err := New(Config{Shards: 1}).Restore(bytes.NewReader(gapped.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "gap") {
		t.Fatalf("gapped delta: got %v, want gap error", err)
	}
}

// TestSnapshotBytesDeterministic: identical fleet state must snapshot to
// identical bytes — the property that makes snapshot sizes CI-diffable
// and journal appends reproducible.
func TestSnapshotBytesDeterministic(t *testing.T) {
	build := func() []byte {
		f := New(Config{Shards: 2})
		defer f.Close()
		for i, id := range []string{"a", "b", "c"} {
			if err := f.CreateTenant(id, batchTenantConfig(int64(i+1))); err != nil {
				t.Fatal(err)
			}
			for b := 0; b < 3; b++ {
				if _, err := f.Observe(id, 150+50*float64(b)); err != nil {
					t.Fatal(err)
				}
			}
		}
		var buf bytes.Buffer
		if err := f.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshot bytes nondeterministic: %d vs %d bytes", len(a), len(b))
	}
}

// TestDeltaFrameIsSlim pins the delta/remove wire struct: a delta of n
// counts costs its own fields plus a few dozen bytes of descriptors, not
// the ~2 KB describing the unused base arm of the reader's union type —
// and a delta encoded from that union (the layout of every journal written
// before the wire structs) still folds.
func TestDeltaFrameIsSlim(t *testing.T) {
	for _, n := range []int{1, 8, 256} {
		counts := make([]float64, n)
		for i := range counts {
			counts[i] = float64(150 + 7*i)
		}
		var buf bytes.Buffer
		size, err := (&frameWriter{w: &buf}).frame(&logFrame{Kind: frameDelta, ID: "tenant-00042", From: 1000, Counts: counts})
		if err != nil {
			t.Fatal(err)
		}
		if limit := int64(160 + 8*n); size > limit {
			t.Errorf("delta frame of %d counts is %d bytes, want <= %d", n, size, limit)
		}
	}
	var rm bytes.Buffer
	if size, err := (&frameWriter{w: &rm}).frame(&logFrame{Kind: frameRemove, ID: "tenant-00042"}); err != nil || size > 160 {
		t.Errorf("remove frame is %d bytes (err %v), want <= 160", size, err)
	}

	f := New(Config{Shards: 1})
	defer f.Close()
	if err := f.CreateTenant("a", batchTenantConfig(1)); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if err := f.Snapshot(&log); err != nil {
		t.Fatal(err)
	}
	fat := &logFrame{Kind: frameDelta, ID: "a", From: 0, Counts: []float64{200, 250}}
	size, err := (&frameWriter{w: &log}).payload(fat)
	if err != nil {
		t.Fatal(err)
	}
	if size < 1024 {
		t.Fatalf("union-typed delta frame is only %d bytes: no longer the fat layout this test reads back", size)
	}
	rep, err := verifyAndRecover(t, "fat delta", log.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeltaFrames != 1 || rep.Observations != 2 {
		t.Errorf("fat delta folded to %+v, want 1 delta frame and 2 observations", rep)
	}
}

// parentJournalGolden is what the code that wrote a parent journal
// reported for it: the verify report, each live tenant's bins and (in
// pr32.journal's golden) State, and Next, what each steppable tenant
// decides on its next bin of 210 arrivals. pr12.journal's Next follows the
// random streams: it was regenerated once, with BENCH_scenarios.json, when
// the streams became des.Stream and synthesis went sort-free (α, γ and the
// frequencies came out as the old stream's; each bin's mean response
// moved).
type parentJournalGolden struct {
	Report VerifyReport
	Bins   map[string]int
	State  map[string]TenantState
	Next   map[string]core.BinDecision
}

// TestParentJournalRecovers pins read compatibility with two older
// layouts. pr12.journal predates artifact frames and wire structs:
// artifact blobs embedded in every genesis base frame, delta and remove
// frames encoded from the union type. pr32.journal holds artifact frames
// of both kinds (a map g and a tree J̃) that its checkpoint bases
// reference, deltas, a remove and a halted tenant. Each verifies to the
// writer's report; recovers to the same tenants, bins and State, its
// tenants learning each fingerprint once as creates would; continues with
// the golden's decisions; and is rewritten without artifacts by the
// compaction recovery ends with.
func TestParentJournalRecovers(t *testing.T) {
	for _, tc := range []struct {
		name         string
		gmaps, trees core.ArtifactKindStats
	}{
		{"pr12", core.ArtifactKindStats{Held: 1, Learns: 1, Shares: 1}, core.ArtifactKindStats{}},
		{"pr32", core.ArtifactKindStats{Held: 1, Learns: 1, Shares: 3}, core.ArtifactKindStats{Held: 1, Learns: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", tc.name+".journal"))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(filepath.Join("testdata", tc.name+".journal.golden.json"))
			if err != nil {
				t.Fatal(err)
			}
			var want parentJournalGolden
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			rep, err := verifyAndRecover(t, tc.name, data)
			if err != nil {
				t.Fatal(err)
			}
			if *rep != want.Report {
				t.Errorf("verify report %+v, want the writer's %+v", *rep, want.Report)
			}

			path := journalPath(t)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			f := New(Config{Shards: 2})
			defer f.Close()
			j, err := OpenJournal(f, path, JournalConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if art := f.Stats().Artifacts; art.GMaps != tc.gmaps || art.Trees != tc.trees {
				t.Errorf("store after recovery: %+v, want maps %+v, trees %+v", art, tc.gmaps, tc.trees)
			}
			if got := len(f.Tenants()); got != len(want.Bins) {
				t.Errorf("recovered %d tenants, want %d", got, len(want.Bins))
			}
			for id, bins := range want.Bins {
				st, err := f.State(id)
				if err != nil {
					t.Fatal(err)
				}
				if st.Bins != bins {
					t.Errorf("tenant %s recovered at %d bins, want %d", id, st.Bins, bins)
				}
				if ws, ok := want.State[id]; ok && !reflect.DeepEqual(st, ws) {
					t.Errorf("tenant %s state:\n got %+v\nwant %+v", id, st, ws)
				}
			}
			for id, next := range want.Next {
				dec, err := f.Observe(id, 210)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(dec, next) {
					t.Errorf("tenant %s next decision diverged from the golden's:\n got %+v\nwant %+v", id, dec, next)
				}
			}

			rewritten, err := VerifyJournalFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if rewritten.Frames != rewritten.BaseFrames || rewritten.BaseFrames != want.Report.Tenants || rewritten.Observations != want.Report.Observations {
				t.Errorf("compacted log: %+v; want only %d bases, %d observations", rewritten, want.Report.Tenants, want.Report.Observations)
			}
			if st, err := os.Stat(path); err != nil || st.Size() >= int64(len(data)) {
				t.Errorf("compacted log is %d bytes (err %v), want less than the parent layout's %d", st.Size(), err, len(data))
			}
		})
	}
}
