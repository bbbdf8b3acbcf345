package core

import (
	"fmt"
	"sync"

	"hierctl/internal/controller"
)

// Offline learning results are keyed by a fingerprint of everything that
// shaped them (hardware + learning configuration) and nothing else — the
// learners take no seed — so a stale or foreign artifact can never be used
// for the wrong setup: a changed configuration simply hashes to a different
// key. The ArtifactStore a fleet shares across its tenants is keyed by it;
// nothing persists a learned artifact, so a new process learns it anew.

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

// ArtifactStore shares offline learning results between the managers built
// through it: one learn and one in-memory copy per fingerprint, however
// many managers use it and however many goroutines construct them at once.
// The first construction of a fingerprint learns; concurrent constructions
// of the same fingerprint wait for that one learner; a failed learn is
// reported to everyone who waited and not cached, so the next construction
// retries. Entries are reference-counted by the managers holding them and
// dropped when the last one calls Release, which bounds the store by its
// live managers rather than by uptime.
//
// Shared artifacts are read-only: the decision paths (GMap.EvaluateInto,
// TreeJTilde.Predict) never mutate them. A fleet owns one store; nothing is
// cached process-wide. The zero value is not usable — construct with
// NewArtifactStore.
//
// A third tier of the same type holds the L1s' candidate tables
// (controller.CandidateTable: the γ neighbourhoods per on/off mask), one
// per shape key. They are computed, not learned: the tier's "learn" is
// NewCandidateTable, a table starts empty, fills as its L1s meet masks,
// and is never persisted or journalled. ArtifactStats does not count them.
type ArtifactStore struct {
	gmaps  artifactTier[*controller.GMap]
	trees  artifactTier[*controller.TreeJTilde]
	tables artifactTier[*controller.CandidateTable]
}

// NewArtifactStore returns an empty store.
func NewArtifactStore() *ArtifactStore {
	s := &ArtifactStore{}
	s.gmaps.entries = map[string]*artifactEntry[*controller.GMap]{}
	s.trees.entries = map[string]*artifactEntry[*controller.TreeJTilde]{}
	s.tables.entries = map[string]*artifactEntry[*controller.CandidateTable]{}
	return s
}

// ArtifactKindStats counts one artifact kind in a store.
type ArtifactKindStats struct {
	// Held is the number of distinct artifacts currently in the store.
	Held int
	// Learns counts the artifacts the store obtained by running the offline
	// learning over its life.
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
type artifactTier[T any] struct {
	mu      sync.Mutex
	entries map[string]*artifactEntry[T]
	learns  int64
	shares  int64
}

// artifactEntry is one fingerprint's slot. refs is guarded by the tier
// mutex; val and err are written once, before ready closes.
type artifactEntry[T any] struct {
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

// acquire returns the artifact for fingerprint, learn-once: the first
// caller runs learn, everyone else waits for it and shares the result. On
// success the caller holds a reference it must release.
func (t *artifactTier[T]) acquire(fingerprint string, learn func() (T, error)) (T, error) {
	var zero T
	t.mu.Lock()
	e, ok := t.entries[fingerprint]
	if !ok {
		e = &artifactEntry[T]{refs: 1, ready: make(chan struct{})}
		t.entries[fingerprint] = e
		t.mu.Unlock()
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
		return e.val, e.err
	}
	e.refs++
	t.mu.Unlock()
	<-e.ready
	if e.err != nil {
		// The learner already removed the failed entry; the reference taken
		// above died with it.
		return zero, e.err
	}
	t.mu.Lock()
	t.shares++
	t.mu.Unlock()
	return e.val, nil
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
