package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hierctl/internal/core"
)

var errCrash = errors.New("injected crash")

func journalPath(t *testing.T) string {
	return filepath.Join(t.TempDir(), "fleet.journal")
}

// snapshotWriter writes f's snapshot to w and returns the writer whose
// stream later frames continue, as a journal's appends continue its
// compaction's.
func snapshotWriter(t testing.TB, f *Fleet, w io.Writer) *frameWriter {
	t.Helper()
	snaps, err := f.captureAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	fw, _, err := writeBaseLog(w, snaps)
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

// writeBaseLog writes snaps to w as a complete frame log and returns the
// writer whose stream later frames continue, and the bytes written.
func writeBaseLog(w io.Writer, snaps []tenantSnap) (*frameWriter, int64, error) {
	fw := &frameWriter{buf: new(bytes.Buffer)}
	n, err := fw.writeBase(w, snaps)
	return fw, n, err
}

// newFrameWriter opens a gob stream on w by writing its segment start, and
// reports the bytes written.
func newFrameWriter(w io.Writer) (*frameWriter, int64, error) {
	fw := &frameWriter{buf: new(bytes.Buffer)}
	n, err := fw.start(w)
	return fw, n, err
}

// appendWriter returns a writer to w whose frames continue any log this
// process wrote: its segment start went elsewhere, and gob numbers a
// process's types the same in every stream, so the frames it writes are
// the data-only messages the log's own writer would write.
func appendWriter(t testing.TB, w io.Writer) *frameWriter {
	t.Helper()
	fw, _, err := newFrameWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	fw.w = w
	return fw
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

// TestJournalFailedAppendKeepsStream: an append that fails after writing
// its frames is cut away and the next one continues the log's gob stream.
// The first failure comes right after a compaction of an empty fleet,
// whose log is the magic and the segment start alone; the second inside a
// stream that already holds frames. Each time the log keeps its one
// segment start, verifies and recovers every tenant. A second stream
// opened after it — a fresh writer's segment start and a delta — is
// refused.
//
//hpm:pin checkpoint
func TestJournalFailedAppendKeepsStream(t *testing.T) {
	path := journalPath(t)
	f := New(Config{Shards: 1})
	defer f.Close()
	j, err := OpenJournal(f, path, JournalConfig{CompactFactor: 1e9, MaxAppends: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var data []byte
	for _, id := range []string{"a", "b"} {
		if err := f.CreateTenant(id, batchTenantConfig(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Observe(id, 200); err != nil {
			t.Fatal(err)
		}
		j.hookAfterFrames = func() error { return errCrash }
		if err := j.Append(); !errors.Is(err, errCrash) {
			t.Fatalf("append: got %v, want injected failure", err)
		}
		j.hookAfterFrames = nil
		if err := j.Append(); err != nil {
			t.Fatal(err)
		}
		if data, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		rep, err := verifyAndRecover(t, "after a failed append", data)
		if err != nil || rep.Segments != 1 || rep.Tenants != len(f.Tenants()) {
			t.Fatalf("log after tenant %s's failed append: %+v (err %v), want 1 segment, %d tenants", id, rep, err, len(f.Tenants()))
		}
	}

	second := bytes.NewBuffer(append([]byte(nil), data...))
	fw, _, err := newFrameWriter(second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.frame(&logFrame{Kind: frameDelta, ID: "a", From: 1, Counts: []float64{210}}); err != nil {
		t.Fatal(err)
	}
	rep, err := verifyAndRecover(t, "second stream", second.Bytes())
	if err == nil || !strings.Contains(err.Error(), "type definition past the log's segment start") || rep.TornTail {
		t.Fatalf("log with a second stream: report %+v, err %v; want the second segment start refused", rep, err)
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

// TestJournalAppendRacesIngest runs Append and Compact while ObserveBatch
// steps tenants on four shards, for the race detector: Append copies each
// delta out of its tenant's count blocks after the sweep that took the view
// returned, while the tenant keeps stepping. Every round steps each tenant
// more than a block's counts and the appender follows each round, so every
// delta spans two or more blocks, and the blocks an Append's sweep drops go
// back to the pool while the next round's adds — other tenants' among them
// — take blocks from it as the deltas are copied. Once ingest stops, one
// more Append is the last durable point, and the fleet the journal recovers
// there is the live one (sameFleets).
//
//hpm:pin pools
//hpm:pin checkpoint
func TestJournalAppendRacesIngest(t *testing.T) {
	const tenants, rounds = 12, 8
	f := New(Config{Shards: 4})
	defer f.Close()
	entries := make([]BatchEntry, tenants)
	for i := range entries {
		id := fmt.Sprintf("t%02d", i)
		if err := f.CreateTenant(id, batchTenantConfig(int64(i+1))); err != nil {
			t.Fatal(err)
		}
		entries[i] = BatchEntry{Tenant: id, Counts: make([]float64, logBlockCounts+3+40*(i%3))}
	}
	path := journalPath(t)
	j, err := OpenJournal(f, path, JournalConfig{CompactFactor: 1e9, MaxAppends: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	ingested := make(chan error, 1)
	stepped := make(chan struct{}, 1)
	go func() {
		for r := 0; r < rounds; r++ {
			for i := range entries {
				for b := range entries[i].Counts {
					entries[i].Counts[b] = float64(100 + (37*r+11*i+5*b)%300)
				}
			}
			if _, err := f.ObserveBatch(entries); err != nil {
				ingested <- err
				return
			}
			select {
			case stepped <- struct{}{}:
			default:
			}
		}
		ingested <- nil
	}()
	appends := 0
	for done := false; !done; appends++ {
		select {
		case err := <-ingested:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		case <-stepped:
		}
		if appends%4 == 3 {
			err = j.Compact()
		} else {
			err = j.Append()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d appends and compactions, the last after ingest", appends)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copyPath := journalPath(t)
	if err := os.WriteFile(copyPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recovered := New(Config{Shards: 3})
	defer recovered.Close()
	rj, err := OpenJournal(recovered, copyPath, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rj.Close()
	sameFleets(t, f, recovered, 0, 2)
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
	// Re-send bins 1-2 (already in the base) plus a new bin 3.
	if _, err := snapshotWriter(t, f, &buf).frame(&logFrame{
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
	if _, err := snapshotWriter(t, f2, &gapped).frame(&logFrame{
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

// TestDeltaFrameIsSlim pins what a frame past the segment start costs: its
// own fields and no type descriptor — a delta of n counts at most 64 + 8·n
// bytes, a remove at most 48, where the segment start carries the ~2 KB of
// descriptors once. A delta encoded from the union type by an encoder of
// its own (the layout of every journal written before the wire structs)
// still folds, in a log of the layout written before the shared stream.
func TestDeltaFrameIsSlim(t *testing.T) {
	fw, start, err := newFrameWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if start < 1024 {
		t.Fatalf("the segment start is only %d bytes: it no longer carries the descriptors", start)
	}
	for _, n := range []int{1, 8, 256} {
		counts := make([]float64, n)
		for i := range counts {
			counts[i] = float64(150 + 7*i)
		}
		size, err := fw.frame(&logFrame{Kind: frameDelta, ID: "tenant-00042", From: 1000, Counts: counts})
		if err != nil {
			t.Fatal(err)
		}
		if limit := int64(64 + 8*n); size > limit {
			t.Errorf("delta frame of %d counts is %d bytes, want <= %d", n, size, limit)
		}
	}
	if size, err := fw.frame(&logFrame{Kind: frameRemove, ID: "tenant-00042"}); err != nil || size > 48 {
		t.Errorf("remove frame is %d bytes (err %v), want <= 48", size, err)
	}

	f := New(Config{Shards: 1})
	defer f.Close()
	if err := f.CreateTenant("a", batchTenantConfig(1)); err != nil {
		t.Fatal(err)
	}
	snaps, err := f.captureAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	log := append([]byte(legacyMagic), legacyFrame(t, logFrame{Kind: frameCheckpoint, Base: &snaps[0]})...)
	fat := legacyFrame(t, logFrame{Kind: frameDelta, ID: "a", From: 0, Counts: []float64{200, 250}})
	if len(fat) < 1024 {
		t.Fatalf("union-typed delta frame is only %d bytes: no longer the fat layout this test reads back", len(fat))
	}
	rep, err := verifyAndRecover(t, "fat delta", append(log, fat...))
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
// decides on its next bin of 210 arrivals; in pr55.journal's golden,
// Overhead is each tenant's overhead counts once it has decided that bin. pr12.journal's Next follows the
// random streams: it was regenerated once, with BENCH_scenarios.json, when
// the streams became des.Stream and synthesis went sort-free (α, γ and the
// frequencies came out as the old stream's; each bin's mean response
// moved).
type parentJournalGolden struct {
	Report VerifyReport
	Bins   map[string]int
	State  map[string]TenantState
	Next   map[string]core.BinDecision
	// Overhead is {L0, L1, L2} × {explored, decisions}.
	Overhead map[string][6]int
}

// TestParentJournalRecovers pins read compatibility with older layouts
// and older session checkpoints. pr12.journal predates artifact
// frames and wire structs: artifact blobs embedded in every genesis base
// frame, delta and remove frames encoded from the union type.
// pr32.journal holds artifact frames of both kinds (a map g and a tree J̃)
// that its checkpoint bases reference, deltas, a remove and a halted
// tenant. pr36.journal is one gob stream: the compaction's segment start
// and checkpoint bases, the first append's deltas, then two appends each
// after a failed one that was cut away — a halted tenant, a quarantine
// re-base, a closed tenant's remove, a tenant closed and recreated under
// its id (remove, fresh base), a two-module tenant's deltas.
// pr52.journal's bases are version-2 checkpoints, the last to carry the
// split flag, the forecast-made flags, the L2's own copy of the split and a
// one-module tenant's cluster words: a one-module tenant, a two-module
// tenant mid-run, a two-module tenant based at bin 0, before its first L2
// decision, and a closed tenant's base and remove. pr55.journal's bases
// are version-3 checkpoints, the last to carry each controller's overhead
// counts: a one-module tenant at bin 5, a two-module tenant mid-T_L2 at bin
// 6 and a two-module tenant at bin 0, all live, then two bins of deltas
// each. Each verifies to the writer's report; recovers to the same tenants,
// bins and State, its tenants learning each fingerprint once as creates
// would; continues with the golden's decisions, and its overhead counts
// from the writer's; and is rewritten as bases
// alone by the compaction recovery ends with, the same bytes a fresh fleet
// recovering that rewrite compacts its tenants to. (A log of live tenants
// need not shrink: bases taken later can outweigh earlier bases and their
// deltas.)
//
//hpm:pin checkpoint
func TestParentJournalRecovers(t *testing.T) {
	for _, tc := range []struct {
		name         string
		gmaps, trees core.ArtifactKindStats
	}{
		{"pr12", core.ArtifactKindStats{Held: 1, Learns: 1, Shares: 1}, core.ArtifactKindStats{}},
		{"pr32", core.ArtifactKindStats{Held: 1, Learns: 1, Shares: 3}, core.ArtifactKindStats{Held: 1, Learns: 1}},
		{"pr36", core.ArtifactKindStats{Held: 1, Learns: 1, Shares: 4}, core.ArtifactKindStats{Held: 1, Learns: 1}},
		{"pr52", core.ArtifactKindStats{Held: 1, Learns: 1, Shares: 2}, core.ArtifactKindStats{Held: 1, Learns: 1, Shares: 1}},
		{"pr55", core.ArtifactKindStats{Held: 1, Learns: 1, Shares: 2}, core.ArtifactKindStats{Held: 1, Learns: 1, Shares: 1}},
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
			if rewritten.Segments != 1 || rewritten.Frames != 1+rewritten.BaseFrames || rewritten.BaseFrames != want.Report.Tenants || rewritten.Observations != want.Report.Observations {
				t.Errorf("compacted log: %+v; want one segment of only %d bases, %d observations", rewritten, want.Report.Tenants, want.Report.Observations)
			}
			compacted, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			again := journalPath(t)
			if err := os.WriteFile(again, compacted, 0o644); err != nil {
				t.Fatal(err)
			}
			fresh := New(Config{Shards: 2})
			defer fresh.Close()
			jf, err := OpenJournal(fresh, again, JournalConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer jf.Close()
			if got, err := os.ReadFile(again); err != nil || !bytes.Equal(got, compacted) {
				t.Errorf("a fresh fleet of the recovered tenants compacts to %d bytes (err %v) that are not the recovery's %d", len(got), err, len(compacted))
			}
			for id, want := range want.Overhead {
				r, err := f.CloseTenant(id)
				if err != nil {
					t.Fatal(err)
				}
				if got := [6]int{r.L0Explored, r.L0Decisions, r.L1Explored, r.L1Decisions, r.L2Explored, r.L2Decisions}; got != want {
					t.Errorf("tenant %s overhead counts %v, want the writer's %v", id, got, want)
				}
			}
		})
	}
}

// TestParentJournalsCoverCheckpointVersions: every session-checkpoint
// version older than the current one — the first word of a fresh tenant's
// checkpoint — is the version of some base in a parent journal under
// testdata, so a version bump cannot leave the reader of its predecessor
// untested.
//
//hpm:pin checkpoint
func TestParentJournalsCoverCheckpointVersions(t *testing.T) {
	f := New(Config{Shards: 1})
	defer f.Close()
	if err := f.CreateTenant("a", batchTenantConfig(1)); err != nil {
		t.Fatal(err)
	}
	snaps, err := f.captureAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	current, _ := binary.Uvarint(snaps[0].Checkpoint)
	paths, err := filepath.Glob(filepath.Join("testdata", "*.journal"))
	if err != nil {
		t.Fatal(err)
	}
	held := map[uint64][]string{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := foldLog(bytes.NewReader(data), func(fr *logFrame, _ []float64) {
			if fr.Base != nil && len(fr.Base.Checkpoint) > 0 {
				v, _ := binary.Uvarint(fr.Base.Checkpoint)
				if !slices.Contains(held[v], path) {
					held[v] = append(held[v], path)
				}
			}
		}); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	for v := uint64(1); v < current; v++ {
		if len(held[v]) == 0 {
			t.Errorf("no parent journal holds a version-%d checkpoint: write one with the code of that version and add it to TestParentJournalRecovers", v)
		}
	}
	t.Logf("current version %d; older versions held by %v", current, held)
}

// TestTenantConfigFields pins the persisted schema: every settable leaf of
// TenantConfig, walked through structs and slices of structs, is a value
// every base frame carries. A new knob must be added here on purpose, and
// earn its field: a binary, an example, an experiment table or a behaviour
// test sets it to a value other than its default and depends on it. The
// paper's fixed parameters are constants instead.
//
//hpm:pin checkpoint
func TestTenantConfigFields(t *testing.T) {
	want := []string{
		"BinSeconds",
		"Calibration",
		"Core.DefaultCHat",
		"Core.DrainSeconds",
		"Core.GMap.CMax",
		"Core.GMap.CMin",
		"Core.GMap.CStep",
		"Core.GMap.LambdaMax",
		"Core.GMap.LambdaStep",
		"Core.GMap.QMax",
		"Core.GMap.QStep",
		"Core.GMap.SubSteps",
		"Core.L0.Horizon",
		"Core.L1.MinOn",
		"Core.L1.PeriodSeconds",
		"Core.L1.Quantum",
		"Core.L1.SwitchWeight",
		"Core.L1.UncertaintySamples",
		"Core.L2.PeriodSeconds",
		"Core.L2.UncertaintySamples",
		"Core.ModuleSim.CLevels",
		"Core.ModuleSim.LambdaLevels",
		"Core.ModuleSim.QLevels",
		"Core.ModuleSim.Tree.MaxDepth",
		"Core.ModuleSim.Tree.MinLeaf",
		"Core.OracleForecast",
		"Core.Parallelism",
		"Core.RecordFrequencies",
		"Core.Seed",
		"Failures[].At",
		"Failures[].Comp",
		"Failures[].Module",
		"Failures[].Repair",
		"Spec.Modules[].Computers[].BootDelaySeconds",
		"Spec.Modules[].Computers[].FrequenciesHz",
		"Spec.Modules[].Computers[].Name",
		"Spec.Modules[].Computers[].Power.Base",
		"Spec.Modules[].Computers[].Power.SwitchCost",
		"Spec.Modules[].Computers[].SpeedFactor",
		"Spec.Modules[].Name",
		"Start",
		"Store.LocalityProb",
		"Store.Objects",
		"Store.PopularCount",
		"Store.TailAlpha",
		"Store.TailCap",
		"Store.TailFrac",
		"StoreSeed",
		"TelemetryRecords",
	}
	var got []string
	var walk func(reflect.Type, string)
	walk = func(typ reflect.Type, path string) {
		switch {
		case typ.Kind() == reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if f := typ.Field(i); f.IsExported() {
					walk(f.Type, path+"."+f.Name)
				}
			}
		case typ.Kind() == reflect.Slice && typ.Elem().Kind() == reflect.Struct:
			walk(typ.Elem(), path+"[]")
		default:
			got = append(got, path[1:])
		}
	}
	walk(reflect.TypeOf(TenantConfig{}), "")
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("TenantConfig has %d leaves, want %d:\n got %q\nwant %q", len(got), len(want), got, want)
	}
}
