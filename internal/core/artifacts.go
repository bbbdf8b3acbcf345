package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"hierctl/internal/controller"
)

// Offline learning results are keyed by a fingerprint of everything that
// shaped them (hardware + learning configuration) and nothing else — the
// learners take no seed — so a stale or foreign artifact can never be used
// for the wrong setup: a changed configuration simply hashes to a different
// key. The ArtifactStore a fleet shares across its tenants is keyed by it;
// nothing persists a learned artifact, so a new process learns it anew.

// gmapConfigKey is the configuration half of an abstraction map g's
// fingerprint — the L0 controller it was simulated under and the learning
// grid — which the computer's hardware key completes. Like hardwareKey it
// is binary and exact: every field in declaration order, each as its 8
// bytes (TestConfigKeysCoverEveryField holds it to every field there is).
func gmapConfigKey(cfg Config) string {
	return string(appendGMapConfigKey(nil, cfg))
}

func appendGMapConfigKey(b []byte, cfg Config) []byte {
	g := cfg.GMap
	b = appendInts(b, cfg.L0.Horizon)
	b = appendFloats(b, g.QMax, g.QStep, g.LambdaMax, g.LambdaStep, g.CMin, g.CMax, g.CStep)
	return appendInts(b, g.SubSteps)
}

// treeConfigKey is the configuration half of a module tree J̃'s
// fingerprint — everything its member maps depend on plus the L1
// controller and the module-simulation grid — which the module's
// composition key completes. A list of levels comes behind its length, so
// the key is self-delimiting.
func treeConfigKey(cfg Config) string {
	l1, ms := cfg.L1, cfg.ModuleSim
	b := appendGMapConfigKey(nil, cfg)
	b = appendFloats(b, l1.PeriodSeconds, l1.Quantum, l1.SwitchWeight)
	uncertain := 0
	if l1.UncertaintySamples {
		uncertain = 1
	}
	b = appendInts(b, l1.MinOn, uncertain)
	for _, levels := range [...][]float64{ms.QLevels, ms.LambdaLevels, ms.CLevels} {
		b = appendInts(b, len(levels))
		b = appendFloats(b, levels...)
	}
	return string(appendInts(b, ms.Tree.MaxDepth, ms.Tree.MinLeaf))
}

// appendFloats appends each value's bits to a fingerprint.
func appendFloats(b []byte, fs ...float64) []byte {
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// appendInts appends each value to a fingerprint as 8 bytes.
func appendInts(b []byte, ns ...int) []byte {
	for _, n := range ns {
		b = binary.LittleEndian.AppendUint64(b, uint64(n))
	}
	return b
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
// Shared artifacts are read-only: the decision paths (the L1's probes of
// g, TreeJTilde.Predict) never mutate them, and a decision's working
// memory is the stepping goroutine's controller.Scratch, so the store holds
// learned artifacts and nothing
// else. A fleet owns one store; nothing is cached process-wide. The zero
// value is not usable — construct with NewArtifactStore.
type ArtifactStore struct {
	gmaps artifactTier[*controller.GMap]
	trees artifactTier[*controller.TreeJTilde]
}

// NewArtifactStore returns an empty store.
func NewArtifactStore() *ArtifactStore {
	s := &ArtifactStore{}
	s.gmaps.entries = map[string]*artifactEntry[*controller.GMap]{}
	s.trees.entries = map[string]*artifactEntry[*controller.TreeJTilde]{}
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

// holdsAll reports whether the tier holds an entry — learned or being
// learned — for every task's fingerprint.
func (t *artifactTier[T]) holdsAll(tasks []artifactTask[T]) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tk := range tasks {
		if _, ok := t.entries[tk.fingerprint]; !ok {
			return false
		}
	}
	return true
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
