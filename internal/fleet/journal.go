package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// JournalConfig tunes the incremental snapshot journal's compaction
// policy. Zero values select the defaults.
type JournalConfig struct {
	// CompactFactor triggers compaction when the delta tail exceeds this
	// multiple of the last full snapshot's size — the classic log/base
	// size trade: a bigger factor appends longer between full rewrites,
	// a smaller one keeps recovery replay short. <= 0 = 1.0.
	CompactFactor float64
	// MaxAppends triggers compaction after this many Append calls since
	// the last full snapshot regardless of size — the age bound that
	// keeps a low-traffic journal's recovery path from accumulating
	// months of tiny frames. <= 0 = 256.
	MaxAppends int
}

const (
	defaultCompactFactor = 1.0
	defaultMaxAppends    = 256
)

// Journal maintains an incremental on-disk snapshot of a fleet: a frame
// log (see snapshot.go) holding one full base snapshot plus the delta
// frames appended since. Append writes only what changed — new tenants
// as checkpoint base frames, grown tenants as deltas of the counts past
// their mark, closed tenants as removes — so steady-state persistence cost
// is proportional to new observations, not fleet size. When the delta tail
// outgrows the base (CompactFactor) or ages out (MaxAppends), the journal
// compacts: a fresh full snapshot is written to a temp file, fsynced, and
// renamed over the log, so a crash at any instant leaves either the old
// log (with its deltas) or the new one — never a half-written base.
//
// Recovery is OpenJournal on the same path: an existing log is streamed
// back into the fleet (tolerating a torn final frame — the signature of
// a crash mid-append) and a fresh base is compacted before the journal
// accepts new appends. The crash invariant — every observation whose
// append completed is restored exactly once — is pinned by the failpoint
// tests in journal_test.go.
//
// Construct with OpenJournal. Methods are safe for concurrent use with
// each other and with fleet ingestion; captures serialize on the
// tenants' home shards like Snapshot.
type Journal struct {
	mu   sync.Mutex
	fl   *Fleet
	path string
	file *os.File
	// fw writes the log's frames. The compaction that wrote the log's head
	// hands over its writer, so appends continue that head's gob stream and
	// pay for no type descriptor.
	fw *frameWriter
	// marks records, per tenant incarnation, how many bins the log already
	// holds; Append journals past the mark and advances it only after the
	// frames are durably written, so a crash between the two re-sends an
	// idempotent overlap instead of losing a suffix. The tenant's own log
	// keeps the counts past its mark, and drops the rest at the next
	// Append's sweep.
	marks       map[string]journalMark
	baseBytes   int64
	tailBytes   int64
	appends     int
	compactions int64
	cfg         JournalConfig
	// broken poisons the journal after a failed append whose garbage
	// tail could not be truncated away: further Appends refuse until a
	// Compact rewrites the log wholesale. Without it, later fsynced
	// frames would land after the garbage and be acknowledged, yet
	// torn-tolerant recovery stops at the garbage and drops them.
	broken bool

	// failpoints: when non-nil, invoked at the matching point and the
	// operation aborts with the returned error — the crash injection
	// seam for the recovery tests.
	hookAfterAppend func() error
	hookAfterFrames func() error
	hookBeforeSwap  func() error
}

// journalMark is the log's high-water mark for one tenant incarnation:
// obs counts the bins journaled so far (the checkpoint's and the deltas'
// since), gen is the tenant's
// registration generation. A close+recreate under the same id bumps the
// generation, which Append detects to retire the old incarnation
// (remove frame) and re-base the new one — keyed by id alone, the new
// tenant's log would be grafted onto the old tenant's base.
type journalMark struct {
	obs int
	gen uint64
	// quar mirrors the tenant's quarantine latch as of the last journaled
	// frame. A transition (always false→true) changes no observation
	// count, so without this Append would journal nothing and a recovery
	// would resurrect the tenant un-quarantined; instead the transition
	// forces a one-time re-base.
	quar bool
}

// JournalStats reports the journal's live size and compaction counters
// for the metrics endpoint.
type JournalStats struct {
	BaseBytes   int64 // size of the last full snapshot
	TailBytes   int64 // delta frames appended since
	Appends     int   // Append calls since the last compaction
	Compactions int64 // full-snapshot rewrites over the journal's life
}

// OpenJournal opens (or creates) the incremental snapshot journal at
// path for fl. An existing non-empty log is first restored into the
// fleet — tolerating a torn final frame, so a journal cut off by a crash
// recovers to the last durable append — and in all cases a fresh full
// snapshot is compacted before the journal is returned, bounding every
// future recovery to one base plus the newest deltas.
func OpenJournal(fl *Fleet, path string, cfg JournalConfig) (*Journal, error) {
	if cfg.CompactFactor <= 0 {
		cfg.CompactFactor = defaultCompactFactor
	}
	if cfg.MaxAppends <= 0 {
		cfg.MaxAppends = defaultMaxAppends
	}
	if prior, err := os.Open(path); err == nil {
		st, serr := prior.Stat()
		if serr == nil && st.Size() > 0 {
			if rerr := fl.restoreLog(prior, true); rerr != nil {
				prior.Close()
				return nil, fmt.Errorf("fleet: recover journal %s: %w", path, rerr)
			}
		}
		prior.Close()
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("fleet: open journal: %w", err)
	}
	j := &Journal{fl: fl, path: path, marks: map[string]journalMark{}, cfg: cfg}
	if err := j.Compact(); err != nil {
		j.stopLogging()
		return nil, err
	}
	return j, nil
}

// Append journals everything that changed since the last Append or
// compaction: checkpoint base frames for tenants the log has never seen,
// delta frames of the counts past each tenant's mark, remove frames for
// closed tenants. Its sweep drops from each tenant's log the counts the
// last Append made durable.
// A tenant closed and recreated under the same id (detected by its
// registration generation) is retired and re-based — a remove frame then
// a fresh base — never mistaken for growth of the old incarnation.
// Frames are fsynced before the marks advance. Triggers compaction per
// the configured policy after a successful append.
func (j *Journal) Append() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.file == nil {
		return fmt.Errorf("fleet: journal closed")
	}
	if j.broken {
		return fmt.Errorf("fleet: journal poisoned by a failed append; Compact to recover")
	}
	type change struct {
		id    string
		frame *logFrame // nil: nothing new since the tenant's mark
		mark  journalMark
		// stale flags a mark left by an older incarnation of this id
		// (tenant closed and recreated between Appends): a remove frame
		// precedes the fresh base so recovery retires the old state.
		stale bool
	}
	// One sweep captures the changes on the home shards; they come back
	// in tenant id order, so identical change sets append identical bytes.
	// The marks are only read here (j.mu is held, nothing writes them).
	changes, err := sweep(j.fl, func(t *tenant) (change, error) {
		mark, marked := j.marks[t.id]
		known := marked && mark.gen == t.gen
		c := change{id: t.id}
		if known {
			// Everything before the mark is durable: the log lets it go.
			t.observations.drop(mark.obs)
		}
		switch {
		case !known, t.quarantined.Load() != mark.quar:
			// Never journaled under this incarnation, or the quarantine
			// latch flipped since the last frame: write a checkpoint base
			// (a later base frame for the same id replaces the assembled
			// state wholesale, so no remove is needed for the quarantine
			// re-base) and log the counts past it.
			snap, err := t.snapshot()
			if err != nil {
				return c, err
			}
			t.journaled = true
			t.observations.restart(snap.Bins)
			c.frame = &logFrame{Kind: frameCheckpoint, Base: &snap}
			c.mark = journalMark{obs: snap.Bins, gen: t.gen, quar: snap.Quarantined}
			c.stale = marked && !known
		case t.observations.len() > mark.obs:
			counts := t.observations.tail(mark.obs)
			c.frame = &logFrame{Kind: frameDelta, ID: t.id, From: mark.obs, Counts: counts}
			c.mark = journalMark{obs: mark.obs + len(counts), gen: t.gen, quar: mark.quar}
		}
		return c, nil
	})
	if err != nil {
		return err
	}
	// A marked tenant the sweep did not visit is closed: retire it.
	var removed []string
	for id := range j.marks {
		if _, live := slices.BinarySearchFunc(changes, id, func(c change, id string) int { return strings.Compare(c.id, id) }); !live {
			removed = append(removed, id)
		}
	}
	sort.Strings(removed)

	// The pre-append end of the log: on any write or sync failure the file
	// is truncated back here, so a torn frame never sits in the middle of
	// frames a later Append fsyncs.
	offset := j.baseBytes + j.tailBytes
	var written int64
	fw := j.fw
	for _, c := range changes {
		if c.frame == nil {
			continue
		}
		if c.stale {
			n, err := fw.frame(&logFrame{Kind: frameRemove, ID: c.id})
			if err != nil {
				return j.failAppend(offset, err)
			}
			written += n
		}
		n, err := fw.frame(c.frame)
		if err != nil {
			return j.failAppend(offset, err)
		}
		written += n
	}
	for _, id := range removed {
		n, err := fw.frame(&logFrame{Kind: frameRemove, ID: id})
		if err != nil {
			return j.failAppend(offset, err)
		}
		written += n
	}
	if written > 0 {
		if j.hookAfterFrames != nil {
			if err := j.hookAfterFrames(); err != nil {
				return j.failAppend(offset, err)
			}
		}
		if err := j.file.Sync(); err != nil {
			return j.failAppend(offset, fmt.Errorf("fleet: sync journal: %w", err))
		}
	}
	// The frames are durable; only now may the marks move past them.
	for _, c := range changes {
		if c.frame != nil {
			j.marks[c.id] = c.mark
		}
	}
	for _, id := range removed {
		delete(j.marks, id)
	}
	j.tailBytes += written
	j.appends++
	if j.hookAfterAppend != nil {
		if err := j.hookAfterAppend(); err != nil {
			return err
		}
	}
	if j.tailBytes > int64(j.cfg.CompactFactor*float64(j.baseBytes)) || j.appends >= j.cfg.MaxAppends {
		return j.compactLocked()
	}
	return nil
}

// failAppend cleans up after a write/sync failure mid-Append: the tail
// past offset may hold a torn frame, and because the marks never
// advanced, leaving it in place would let later successful Appends fsync
// acknowledged frames *after* garbage that torn-tolerant recovery stops
// at. Truncating back to the pre-append offset removes the garbage and
// keeps the journal usable, its stream too: the frames cut away carried
// data only. If even the truncate fails, the journal is poisoned — Append
// refuses until a Compact rewrites the log wholesale.
func (j *Journal) failAppend(offset int64, werr error) error {
	if terr := j.file.Truncate(offset); terr != nil {
		j.broken = true
		return fmt.Errorf("fleet: journal append failed (%v); truncate to %d failed (%v); journal poisoned until Compact", werr, offset, terr)
	}
	return werr
}

// syncDir fsyncs a directory, making a just-renamed file's directory
// entry durable. Without it a power loss shortly after compaction can
// revert to the old log file while subsequent deltas were appended to
// the (lost) new inode.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// Compact rewrites the journal as one fresh full snapshot, replacing the
// accumulated base + delta history. The new log is written to a temp
// file, fsynced, and atomically renamed over the old one (with the
// parent directory fsynced so the swap survives power loss).
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.compactLocked()
}

func (j *Journal) compactLocked() error {
	snaps, err := j.fl.captureAll(true)
	if err != nil {
		return err
	}
	tmp := j.path + ".tmp"
	file, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("fleet: compact journal: %w", err)
	}
	fw, written, werr := writeBaseLog(file, snaps)
	if werr == nil {
		werr = file.Sync()
	}
	if cerr := file.Close(); werr == nil && cerr != nil {
		werr = cerr
	}
	if werr == nil && j.hookBeforeSwap != nil {
		werr = j.hookBeforeSwap()
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("fleet: compact journal: %w", werr)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fleet: compact journal: %w", err)
	}
	if err := syncDir(filepath.Dir(j.path)); err != nil {
		// The swap may not be durable and the open handle still points at
		// the replaced inode, so appends could land on a file a crash
		// reverts away. Poison until a Compact retry succeeds.
		j.broken = true
		return fmt.Errorf("fleet: sync journal dir: %w", err)
	}
	if j.file != nil {
		j.file.Close()
	}
	j.file, err = os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("fleet: reopen journal: %w", err)
	}
	fw.w = j.file
	j.fw = fw
	marks := make(map[string]journalMark, len(snaps))
	for i := range snaps {
		marks[snaps[i].ID] = journalMark{obs: snaps[i].Bins, gen: snaps[i].gen, quar: snaps[i].Quarantined}
	}
	j.marks = marks
	j.baseBytes = written
	j.tailBytes = 0
	j.appends = 0
	j.broken = false
	j.compactions++
	j.fl.snapshots.Add(1)
	return nil
}

// Stats reports the journal's size and compaction counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{
		BaseBytes:   j.baseBytes,
		TailBytes:   j.tailBytes,
		Appends:     j.appends,
		Compactions: j.compactions,
	}
}

// Close releases the journal's file handle, and the fleet's tenants stop
// logging counts for it. The log on disk stays valid; reopen with
// OpenJournal. Callers wanting the newest observations persisted should
// Append (or Compact) first.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.file == nil {
		return nil
	}
	err := j.file.Close()
	j.file = nil
	j.stopLogging()
	return err
}

// stopLogging has every tenant drop its log and log no more. A closed
// fleet has no tenants left to tell.
func (j *Journal) stopLogging() {
	_, _ = sweep(j.fl, func(t *tenant) (struct{}, error) {
		t.journaled = false
		t.observations = obsLog{}
		return struct{}{}, nil
	})
}
