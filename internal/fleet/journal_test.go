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
	dir := t.TempDir()
	path := journalPath(t)
	f := New(Config{Shards: 2})
	defer f.Close()
	for _, id := range []string{"a", "b"} {
		if err := f.CreateTenant(id, batchTenantConfig(dir, 1)); err != nil {
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
	if err := f.CreateTenant("c", batchTenantConfig(dir, 2)); err != nil {
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
	if err := f.CreateTenant("a", batchTenantConfig(t.TempDir(), 1)); err != nil {
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
	dir := t.TempDir()
	path := journalPath(t)
	f := New(Config{Shards: 1})
	defer f.Close()
	if err := f.CreateTenant("a", batchTenantConfig(dir, 1)); err != nil {
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
	if err := f.CreateTenant("a", batchTenantConfig(dir, 9)); err != nil {
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
	if err := f.CreateTenant("a", batchTenantConfig(t.TempDir(), 1)); err != nil {
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
	dir := t.TempDir()
	path := journalPath(t)
	f := New(Config{Shards: 1})
	defer f.Close()
	if err := f.CreateTenant("a", batchTenantConfig(dir, 1)); err != nil {
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
	if err := f.CreateTenant("a", batchTenantConfig(t.TempDir(), 1)); err != nil {
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
	if err := f.CreateTenant("a", batchTenantConfig(t.TempDir(), 1)); err != nil {
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
	if err := f.CreateTenant("a", batchTenantConfig(t.TempDir(), 1)); err != nil {
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
	dir := t.TempDir()
	build := func() []byte {
		f := New(Config{Shards: 2})
		defer f.Close()
		for i, id := range []string{"a", "b", "c"} {
			if err := f.CreateTenant(id, batchTenantConfig(dir, int64(i+1))); err != nil {
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
	if err := f.CreateTenant("a", batchTenantConfig("", 1)); err != nil {
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

// TestJournalCrashBetweenArtifactAndBase: the process dies after an
// Append wrote a new tenant's artifact frame but before the base frame
// that references it. The log then ends in an artifact nothing uses;
// recovery must restore every observation acknowledged before that append
// exactly once, and the surviving journal — which truncated the failed
// append away — must write the artifact again with the retried base.
func TestJournalCrashBetweenArtifactAndBase(t *testing.T) {
	path := journalPath(t)
	crashed := filepath.Join(t.TempDir(), "crashed.journal")
	f := New(Config{Shards: 2})
	defer f.Close()
	if err := f.CreateTenant("a", batchTenantConfig("", 1)); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(f, path, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, c := range []float64{200, 250, 150} {
		if _, err := f.Observe("a", c); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(); err != nil { // acknowledged: a at 3 bins
		t.Fatal(err)
	}

	// A tenant of a new shape brings an artifact the log does not hold.
	wide := batchTenantConfig("", 2)
	wide.Core.GMap.QStep = 50
	if err := f.CreateTenant("b", wide); err != nil {
		t.Fatal(err)
	}
	j.hookAfterArtifacts = func() error {
		// What a crash at this instant leaves on disk.
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.WriteFile(crashed, data, 0o644); err != nil {
			return err
		}
		return errCrash
	}
	if err := j.Append(); !errors.Is(err, errCrash) {
		t.Fatalf("append: got %v, want injected crash", err)
	}
	j.hookAfterArtifacts = nil

	rep, err := VerifyJournalFile(crashed)
	if err != nil {
		t.Fatalf("crashed log: %v", err)
	}
	if rep.ArtifactFrames != 2 || rep.Tenants != 1 || rep.Observations != 3 {
		t.Fatalf("crashed log folds to %+v; want the orphan artifact frame, tenant a, 3 observations", rep)
	}
	f2 := New(Config{Shards: 2})
	defer f2.Close()
	j2, err := OpenJournal(f2, crashed, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := f2.Tenants(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("recovered tenants %v, want [a]", got)
	}
	if st, err := f2.State("a"); err != nil || st.Bins != 3 {
		t.Fatalf("recovered a at %+v (err %v), want the 3 acknowledged bins", st, err)
	}
	// Recovery compacted: the orphan is gone from the rewritten log.
	if rep, err := VerifyJournalFile(crashed); err != nil || rep.ArtifactFrames != 1 {
		t.Fatalf("compacted log: %+v, err %v; want 1 artifact frame", rep, err)
	}

	// The survivor retries: artifact frame and base land together.
	if _, err := f.Observe("a", 300); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(); err != nil {
		t.Fatal(err)
	}
	rep, err = VerifyJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ArtifactFrames != 2 || rep.Tenants != 2 || rep.Observations != 4 {
		t.Fatalf("retried append folds to %+v; want 2 artifact frames, 2 tenants, 4 observations", rep)
	}
}

// TestJournalAppendReferencesHeldArtifacts: a tenant created after the
// base was written costs the log a base frame of references only when the
// log already holds its artifacts — the artifact is on disk once per
// journal, not once per tenant.
func TestJournalAppendReferencesHeldArtifacts(t *testing.T) {
	path := journalPath(t)
	f := New(Config{Shards: 2})
	defer f.Close()
	if err := f.CreateTenant("a", batchTenantConfig("", 1)); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(f, path, JournalConfig{CompactFactor: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i, id := range []string{"b", "c", "d"} {
		if err := f.CreateTenant(id, batchTenantConfig("", int64(i+2))); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := VerifyJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaseFrames != 4 || rep.ArtifactFrames != 1 {
		t.Fatalf("log holds %d base and %d artifact frames, want 4 and 1", rep.BaseFrames, rep.ArtifactFrames)
	}
	if st := j.Stats(); st.TailBytes > st.BaseBytes {
		t.Errorf("three reference-only bases (%d bytes) outweigh the base log with its artifact (%d bytes)", st.TailBytes, st.BaseBytes)
	}
}

// parentJournalGolden is what the parent commit's own code reported for
// testdata/pr12.journal when it wrote it — except Next, which is what the
// replayed tenants decide on their next bin and so follows the random
// streams: it was regenerated once, with BENCH_scenarios.json, when the
// streams became des.Stream and synthesis went sort-free (α, γ and the
// frequencies came out as the old stream's; each bin's mean response moved).
type parentJournalGolden struct {
	Report VerifyReport
	Bins   map[string]int
	Next   map[string]core.BinDecision
}

// TestParentJournalRecovers pins read compatibility: a journal written by
// the code before artifact frames and wire structs existed — artifact
// blobs embedded in every base frame, delta and remove frames encoded from
// the union type — verifies to the same report, recovers to the same
// tenants and bins, continues with the decision this code's streams give
// the replayed state, and is rewritten in the current layout by the
// compaction recovery ends with.
func TestParentJournalRecovers(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "pr12.journal"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "pr12.journal.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want parentJournalGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	rep, err := verifyAndRecover(t, "parent journal", data)
	if err != nil {
		t.Fatal(err)
	}
	if *rep != want.Report {
		t.Errorf("verify report %+v, want the parent's %+v", *rep, want.Report)
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
	// Three embedded copies of one blob: decoded once, held once, and the
	// two live tenants share it without a learn.
	if art := f.Stats().Artifacts.GMaps; art.Held != 1 || art.Learns != 0 || art.Shares != 1 {
		t.Errorf("store after recovery: %+v, want 1 held, 0 learns, 1 share", art)
	}
	for id, bins := range want.Bins {
		st, err := f.State(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Bins != bins {
			t.Errorf("tenant %s recovered at %d bins, want %d", id, st.Bins, bins)
		}
		dec, err := f.Observe(id, 210)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec, want.Next[id]) {
			t.Errorf("tenant %s next decision diverged from the golden's:\n got %+v\nwant %+v", id, dec, want.Next[id])
		}
	}

	rewritten, err := VerifyJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rewritten.ArtifactFrames != 1 || rewritten.BaseFrames != 2 || rewritten.Observations != want.Report.Observations {
		t.Errorf("compacted log: %+v; want 1 artifact frame, 2 bases, %d observations", rewritten, want.Report.Observations)
	}
	if st, err := os.Stat(path); err != nil || st.Size() >= int64(len(data)) {
		t.Errorf("compacted log is %d bytes (err %v), want less than the parent layout's %d", st.Size(), err, len(data))
	}
}
