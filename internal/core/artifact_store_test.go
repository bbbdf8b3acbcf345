package core

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"hierctl/internal/cluster"
	"hierctl/internal/controller"
)

// waitForRefs blocks until fingerprint's entry counts n references — the
// learner plus every waiter parked on it.
func waitForRefs(t *testing.T, tier *artifactTier[*controller.GMap], fingerprint string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		tier.mu.Lock()
		e := tier.entries[fingerprint]
		refs := 0
		if e != nil {
			refs = e.refs
		}
		tier.mu.Unlock()
		if refs == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("entry %q at %d references, want %d", fingerprint, refs, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestArtifactStoreLearnOnce pins the store's contract on one tier: the
// first acquirer learns while the rest wait and share; a failed (or
// panicking) learn reaches every waiter and is not cached, so the next
// acquire retries; the last release empties the store.
func TestArtifactStoreLearnOnce(t *testing.T) {
	cfg := fastConfig()
	g, err := controller.LearnGMap(cfg.L0, moduleOf("M1", 1).Computers[0], cfg.GMap)
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 5
	errLearn := errors.New("injected learn failure")

	for _, tc := range []struct {
		name  string
		learn func() (*controller.GMap, error)
		fails bool
	}{
		{"success", func() (*controller.GMap, error) { return g, nil }, false},
		{"error", func() (*controller.GMap, error) { return nil, errLearn }, true},
		{"panic", func() (*controller.GMap, error) { panic("injected learn panic") }, true},
	} {
		tier := &NewArtifactStore().gmaps
		gate := make(chan struct{})
		learns := 0
		learn := func() (*controller.GMap, error) {
			learns++
			<-gate
			return tc.learn()
		}
		var wg sync.WaitGroup
		results := make([]error, waiters+1)
		for i := range results {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() {
					if v := recover(); v != nil {
						results[i] = errors.New("learner panicked")
					}
				}()
				got, err := tier.acquire("fp", learn)
				if err == nil && got != g {
					err = errors.New("acquire returned a different artifact")
				}
				results[i] = err
			}(i)
		}
		waitForRefs(t, tier, "fp", waiters+1)
		close(gate)
		wg.Wait()

		if learns != 1 {
			t.Errorf("%s: %d learns for %d concurrent acquirers, want 1", tc.name, learns, waiters+1)
		}
		for i, err := range results {
			if (err != nil) != tc.fails {
				t.Errorf("%s: acquirer %d got %v", tc.name, i, err)
			}
		}
		st := tier.stats()
		if tc.fails {
			if st.Held != 0 || st.Learns != 0 || st.Shares != 0 {
				t.Errorf("%s: failed learn left %+v", tc.name, st)
			}
			// Not cached: the next acquire learns again.
			if _, err := tier.acquire("fp", func() (*controller.GMap, error) { return g, nil }); err != nil {
				t.Errorf("%s: retry after failure: %v", tc.name, err)
			}
			if st := tier.stats(); st.Held != 1 || st.Learns != 1 {
				t.Errorf("%s: after retry: %+v", tc.name, st)
			}
			tier.release("fp")
		} else {
			if st.Held != 1 || st.Learns != 1 || st.Shares != waiters {
				t.Errorf("%s: %+v, want 1 held, 1 learn, %d shares", tc.name, st, waiters)
			}
			for i := 0; i <= waiters; i++ {
				if tier.stats().Held != 1 {
					t.Fatalf("%s: entry dropped with %d holders left", tc.name, waiters+1-i)
				}
				tier.release("fp")
			}
		}
		if st := tier.stats(); st.Held != 0 {
			t.Errorf("%s: store holds %d entries after the last release", tc.name, st.Held)
		}
	}
}

// TestStoreManagersShareAndRelease: managers built through one store use
// the same artifact objects, only the first learns, Release is idempotent,
// and the store empties with its last manager.
func TestStoreManagersShareAndRelease(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2), moduleOf("M2", 2)}}
	cfg := fastConfig()
	store := NewArtifactStore()
	first, err := store.NewManager(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99 // the seed is not part of the learning fingerprint
	second, err := store.NewManager(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for key, g := range first.Artifacts().GMaps {
		if second.Artifacts().GMaps[key] != g {
			t.Error("second manager holds its own gmap")
		}
	}
	for key, jt := range first.Artifacts().Trees {
		if second.Artifacts().Trees[key] != jt {
			t.Error("second manager holds its own tree")
		}
	}
	want := ArtifactStats{
		GMaps: ArtifactKindStats{Held: 1, Learns: 1, Shares: 1},
		Trees: ArtifactKindStats{Held: 1, Learns: 1, Shares: 1},
	}
	if got := store.Stats(); got != want {
		t.Fatalf("store: %+v, want %+v", got, want)
	}
	// A construction that fails after acquiring releases what it took:
	// the map is shared from a live single-module manager (the gmap
	// fingerprint holds no L1 field), and so is the L1's candidate table,
	// then NewL1 refuses a minimum on-count larger than the module.
	other := NewArtifactStore()
	single, err := other.NewManager(cluster.Spec{Modules: spec.Modules[:1]}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.L1.MinOn = len(spec.Modules[0].Computers) + 1
	if _, err := other.NewManager(spec, bad); err == nil {
		t.Fatal("construction with L1.MinOn larger than a module succeeded")
	}
	if got := other.Stats(); got.GMaps.Held != 1 || got.GMaps.Shares != 1 || got.Trees.Held != 0 {
		t.Fatalf("failed construction left references behind: %+v", got)
	}
	single.Release()
	if got := other.Stats(); got.GMaps.Held != 0 || len(other.tables.entries) != 0 {
		t.Fatalf("store after the failed construction's only sibling released: %+v, %d candidate tables", got, len(other.tables.entries))
	}
	first.Release()
	first.Release()
	if got := store.Stats(); got.GMaps.Held != 1 || got.Trees.Held != 1 {
		t.Fatalf("store after one of two managers released (twice): %+v", got)
	}
	second.Release()
	if got := store.Stats(); got.GMaps.Held != 0 || got.Trees.Held != 0 {
		t.Fatalf("store after the last release: %+v", got)
	}
}

// TestStoreKeyedByConfig: an artifact is keyed by everything that shaped
// it, so a changed learning grid built through the same store learns its
// own map instead of reusing the first.
func TestStoreKeyedByConfig(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2)}}
	cfg := fastConfig()
	store := NewArtifactStore()
	first, err := store.NewManager(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wide := cfg
	wide.GMap.QStep = 50
	second, err := store.NewManager(spec, wide)
	if err != nil {
		t.Fatal(err)
	}
	if got := store.Stats().GMaps; got.Learns != 2 || got.Held != 2 || got.Shares != 0 {
		t.Fatalf("store after two learning grids: %+v, want 2 learns, 2 held", got)
	}
	// Artifacts is keyed by hardware, which both managers share.
	for key, g := range first.Artifacts().GMaps {
		if second.Artifacts().GMaps[key] == g {
			t.Fatal("a changed grid reused the first map")
		}
	}
	first.Release()
	second.Release()
	if got := store.Stats().GMaps; got.Held != 0 {
		t.Fatalf("store after the last release: %+v", got)
	}
}

// TestStoreManagersShareCandidateTables: the L1s' candidate table belongs
// to the shape, not the manager. Two managers of one shape built through
// one store hold the same table — one for the identical modules' L1s; the
// L2 keeps none — and a second L1 of the shape, warm, allocates nothing on
// its first decides over masks only the first L1 has met, where a twin with
// a private table computes them. The table leaves the store with its last
// manager.
func TestStoreManagersShareCandidateTables(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 4), moduleOf("M2", 4)}}
	cfg := fastConfig()
	cfg.Parallelism = 1
	store := NewArtifactStore()
	first, err := store.NewManager(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := store.NewManager(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	private, err := NewManager(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l1Table := first.modules[0].l1.Table()
	for _, m := range []*Manager{first, second} {
		for i, asm := range m.modules {
			if asm.l1.Table() != l1Table {
				t.Fatalf("module %d's L1 holds its own candidate table", i)
			}
		}
	}
	if private.modules[0].l1.Table() == l1Table {
		t.Fatal("a manager outside the store reads the store's table")
	}
	if held := len(store.tables.entries); held != 1 {
		t.Fatalf("store holds %d candidate tables, want 1 (one L1 shape)", held)
	}

	// Step 0 has every computer up, from a previous split far from the
	// capacity seed, so an L1 that decided it holds scratch for the largest
	// candidate lists; each later step fails another computer, so its α
	// masks are new to such an L1.
	const steps = 5
	obs := make([]controller.L1Observation, steps)
	for k := range obs {
		o := controller.L1Observation{QueueLens: make([]float64, 4), LambdaHat: 160 - 25*float64(k), Delta: 6, CHat: 0.0175, Available: make([]bool, 4)}
		for j := range o.Available {
			o.Available[j] = k == 0 || j != (k-1)%4
			o.QueueLens[j] = float64((k*(3+2*j) + j) % 40)
		}
		obs[k] = o
	}
	a, b, c := first.modules[0].l1, second.modules[0].l1, private.modules[0].l1
	for _, l1 := range []*controller.L1{a, b, c} {
		if err := l1.SetState([]bool{true, true, true, true}, []float64{0.85, 0.05, 0.05, 0.05}); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]controller.L1Decision, steps)
	for k, o := range obs {
		dec, err := a.Decide(o)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = controller.L1Decision{Alpha: slices.Clone(dec.Alpha), Gamma: slices.Clone(dec.Gamma), Explored: dec.Explored}
	}
	published := l1Table.Len()
	// decideRest runs steps 1.. on l1 and reports the first step whose
	// decision differs from a's, allocating nothing of its own.
	decideRest := func(l1 *controller.L1) (diverged int) {
		for k := 1; k < steps; k++ {
			dec, err := l1.Decide(obs[k])
			if err != nil {
				t.Fatal(err)
			}
			if diverged == 0 && (!slices.Equal(dec.Alpha, want[k].Alpha) || !slices.Equal(dec.Gamma, want[k].Gamma) || dec.Explored != want[k].Explored) {
				diverged = k
			}
		}
		return diverged
	}
	for _, l1 := range []*controller.L1{b, c} {
		if _, err := l1.Decide(obs[0]); err != nil {
			t.Fatal(err)
		}
	}
	var diverged int
	if n := mallocs(func() { diverged = decideRest(b) }); n != 0 {
		t.Errorf("a second L1 over masks the first published allocated %d times in %d decides, want 0", n, steps-1)
	}
	if diverged != 0 {
		t.Errorf("step %d: the second L1 decided differently from the first", diverged)
	}
	if l1Table.Len() != published {
		t.Errorf("the second L1 published %d masks, want none", l1Table.Len()-published)
	}
	if n := mallocs(func() { diverged = decideRest(c) }); n == 0 || diverged != 0 {
		t.Errorf("the private-table twin allocated %d times (the masks were new to it: want > 0) and diverged at step %d (want none)", n, diverged)
	}

	first.Release()
	if held := len(store.tables.entries); held != 1 {
		t.Fatalf("store holds %d candidate tables with one manager left, want 1", held)
	}
	second.Release()
	if held := len(store.tables.entries); held != 0 {
		t.Fatalf("store holds %d candidate tables after the last release", held)
	}
}

// mallocs counts the heap allocations fn makes, the way testing.AllocsPerRun
// does, for a call that must be measured the first time it runs.
func mallocs(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
