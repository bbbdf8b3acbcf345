package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"hierctl/internal/controller"
)

// Offline learning results are keyed by a fingerprint of everything that
// shaped them (hardware + learning configuration) and nothing else — the
// learners take no seed — so a stale or foreign artifact can never be used
// for the wrong setup: a changed configuration simply hashes to a different
// key. One fingerprint serves both tiers: the in-memory ArtifactStore a
// fleet shares across its tenants, and the ArtifactDir file cache.

// gmapFingerprint keys an abstraction map g: the L0 controller it was
// simulated under, the learning grid, and the computer's hardware key.
func gmapFingerprint(cfg Config, hardware string) string {
	return fmt.Sprintf("%+v|%+v|%s", cfg.L0, cfg.GMap, hardware)
}

// treeFingerprint keys a module tree J̃: everything its member maps depend
// on plus the L1 controller, the module-simulation grid and the module's
// composition key.
func treeFingerprint(cfg Config, module string) string {
	return fmt.Sprintf("%+v|%+v|%+v|%+v|%s", cfg.L0, cfg.L1, cfg.GMap, cfg.ModuleSim, module)
}

// learned is what the two artifact kinds (*controller.GMap,
// *controller.TreeJTilde) have in common.
type learned interface {
	comparable
	Save(w io.Writer) error
	Saved() (*controller.Saved, error)
}

// loadOrLearn is the ArtifactDir file tier: it returns the cached artifact
// when dir holds a readable one for this fingerprint, otherwise learns and
// caches it. An empty dir means no file tier.
func loadOrLearn[T learned](dir, kind, fingerprint string, read func(io.Reader) (T, error), learn func() (T, error)) (T, error) {
	if dir == "" {
		return learn()
	}
	sum := sha256.Sum256([]byte(fingerprint))
	path := filepath.Join(dir, kind+"-"+hex.EncodeToString(sum[:8])+".gob")
	if f, err := os.Open(path); err == nil {
		a, err := read(f)
		closeErr := f.Close()
		if err == nil && closeErr == nil {
			return a, nil
		}
		// Unreadable artifact: fall through to relearn and overwrite.
	}
	a, err := learn()
	if err != nil {
		return a, err
	}
	if err := writeArtifact(path, a.Save); err != nil {
		var zero T
		return zero, err
	}
	return a, nil
}

// writeArtifact writes via a temp file and rename so a crashed run never
// leaves a truncated artifact behind.
func writeArtifact(path string, write func(w io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("core: create artifact: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("core: write artifact %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: close artifact %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: commit artifact %s: %w", path, err)
	}
	return nil
}

// ArtifactStore shares offline learning results between the managers built
// through it: one learn and one in-memory copy per fingerprint, however
// many managers use it and however many goroutines construct them at once.
// The first construction of a fingerprint learns (or loads from
// Config.ArtifactDir); concurrent constructions of the same fingerprint
// wait for that one learner; a failed learn is reported to everyone who
// waited and not cached, so the next construction retries. Entries are
// reference-counted by the managers holding them and dropped when the last
// one calls Release, which bounds the store by its live managers rather
// than by uptime.
//
// Shared artifacts are read-only: the decision paths (GMap.EvaluateInto,
// TreeJTilde.Predict) never mutate them. A fleet owns one store; nothing is
// cached process-wide. The zero value is not usable — construct with
// NewArtifactStore.
//
// A third tier holds the controllers' candidate tables
// (controller.CandidateTable: the L1 γ neighbourhoods and the L2 simplex
// enumerations), one per shape key, reference-counted the same way. They are
// computed, not learned: a table starts empty, fills as its controllers
// meet masks, and is never persisted or journalled.
type ArtifactStore struct {
	gmaps  artifactTier[*controller.GMap]
	trees  artifactTier[*controller.TreeJTilde]
	tables tableTier
}

// NewArtifactStore returns an empty store.
func NewArtifactStore() *ArtifactStore {
	s := &ArtifactStore{}
	s.gmaps.entries = map[string]*artifactEntry[*controller.GMap]{}
	s.trees.entries = map[string]*artifactEntry[*controller.TreeJTilde]{}
	s.tables.entries = map[string]*tableEntry{}
	return s
}

// ArtifactKindStats counts one artifact kind in a store.
type ArtifactKindStats struct {
	// Held is the number of distinct artifacts currently in the store.
	Held int
	// Learns counts the artifacts the store obtained by running the offline
	// learning (or loading its ArtifactDir cache file) over its life.
	Learns int64
	// Shares counts manager constructions served an artifact the store
	// already held (or was already learning) instead of learning it again.
	Shares int64
}

// ArtifactStats reports a store's census and counters: the abstraction
// maps g and the module trees J̃.
type ArtifactStats struct {
	GMaps, Trees ArtifactKindStats
}

// Stats returns the store's current counters.
func (s *ArtifactStore) Stats() ArtifactStats {
	return ArtifactStats{GMaps: s.gmaps.stats(), Trees: s.trees.stats()}
}

// artifactTier is the store for one artifact kind.
type artifactTier[T learned] struct {
	mu      sync.Mutex
	entries map[string]*artifactEntry[T]
	learns  int64
	shares  int64
}

// artifactEntry is one fingerprint's slot. refs is guarded by the tier
// mutex; val and err are written once, before ready closes.
type artifactEntry[T learned] struct {
	refs  int
	ready chan struct{}
	val   T
	err   error
}

func (t *artifactTier[T]) stats() ArtifactKindStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return ArtifactKindStats{Held: len(t.entries), Learns: t.learns, Shares: t.shares}
}

// acquire returns the artifact for fingerprint and whether the caller now
// holds a reference it must release. With a zero logged value it is
// learn-once: the first caller runs learn, everyone else waits for it and
// shares the result. A non-zero logged value is an artifact restored from a
// snapshot log, which must be used as the log recorded it: it becomes the
// fingerprint's entry when there is none, is shared through the entry when
// the entry holds the same content, and is otherwise returned as the
// caller's private copy (held == false) — never swapped for the store's.
func (t *artifactTier[T]) acquire(fingerprint string, logged T, learn func() (T, error)) (val T, held bool, err error) {
	var zero T
	t.mu.Lock()
	e, ok := t.entries[fingerprint]
	if !ok {
		e = &artifactEntry[T]{refs: 1, ready: make(chan struct{})}
		t.entries[fingerprint] = e
		t.mu.Unlock()
		if logged != zero {
			e.val = logged
			close(e.ready)
			return logged, true, nil
		}
		// The deferred completion also runs when learn panics, so waiters
		// are released (with an error) rather than parked forever.
		done := false
		defer func() {
			if !done {
				e.err = fmt.Errorf("core: learning %s panicked", fingerprint)
			}
			t.mu.Lock()
			if e.err != nil {
				delete(t.entries, fingerprint)
			} else {
				t.learns++
			}
			t.mu.Unlock()
			close(e.ready)
		}()
		e.val, e.err = learn()
		done = true
		return e.val, e.err == nil, e.err
	}
	e.refs++
	t.mu.Unlock()
	<-e.ready
	if e.err != nil {
		// The learner already removed the failed entry; the reference taken
		// above died with it.
		return zero, false, e.err
	}
	if logged != zero && logged != e.val {
		same, err := sameContent(logged, e.val)
		if err != nil || !same {
			t.release(fingerprint)
			return logged, false, err
		}
	}
	t.mu.Lock()
	t.shares++
	t.mu.Unlock()
	return e.val, true, nil
}

func sameContent[T learned](a, b T) (bool, error) {
	sa, err := a.Saved()
	if err != nil {
		return false, err
	}
	sb, err := b.Saved()
	if err != nil {
		return false, err
	}
	return sa.Digest == sb.Digest, nil
}

// release drops one reference; the last one removes the entry.
func (t *artifactTier[T]) release(fingerprint string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[fingerprint]
	if e.refs--; e.refs == 0 {
		delete(t.entries, fingerprint)
	}
}

// tableTier is the store's candidate-table tier: one table per shape key,
// created empty by its first holder and dropped with its last.
type tableTier struct {
	mu      sync.Mutex
	entries map[string]*tableEntry
}

// tableEntry is one shape's table; refs is guarded by the tier mutex.
type tableEntry struct {
	refs  int
	table *controller.CandidateTable
}

// acquire returns the table for key and takes a reference the caller must
// release.
func (t *tableTier) acquire(key string) *controller.CandidateTable {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[key]
	if e == nil {
		e = &tableEntry{table: controller.NewCandidateTable(key)}
		t.entries[key] = e
	}
	e.refs++
	return e.table
}

// release drops one reference; the last one removes the entry.
func (t *tableTier) release(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[key]
	if e.refs--; e.refs == 0 {
		delete(t.entries, key)
	}
}
