package core

import (
	"errors"
	"reflect"
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
//
//hpm:pin sharing
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
// and a construction that fails gives back what it took. That the store
// empties with its last holder is TestArtifactStoreLearnOnce's, and the
// fleet's TestArtifactsLearnedOncePerFingerprint's.
//
//hpm:pin sharing
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
	// fingerprint holds no L1 field), then NewL1 refuses a minimum
	// on-count larger than the module.
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
	if got := other.Stats(); got.GMaps.Held != 0 {
		t.Fatalf("store after the failed construction's only sibling released: %+v", got)
	}
	first.Release()
	first.Release()
	if got := store.Stats(); got.GMaps.Held != 1 || got.Trees.Held != 1 {
		t.Fatalf("store after one of two managers released (twice): %+v", got)
	}
	second.Release()
}

// TestStoreKeyedByConfig: an artifact is keyed by everything that shaped
// it, so a changed learning grid built through the same store learns its
// own map instead of reusing the first.
//
//hpm:pin sharing
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
}

// TestConfigKeysCoverEveryField: flipping any field of L0Config,
// GMapConfig, L1Config or ModuleSimConfig — Tree's fields and each level
// list's length and entries included — changes the fingerprint half that
// depends on it, so a field added later can never let one configuration
// share artifacts learned under another. The fields are found by
// reflection: a new one the keys do not write fails here, and one of a kind
// the test cannot flip fails too, until both learn it.
func TestConfigKeysCoverEveryField(t *testing.T) {
	base := DefaultConfig()
	parts := []struct {
		name string
		of   func(*Config) reflect.Value
		gmap bool // the g key depends on it too
	}{
		{"L0", func(c *Config) reflect.Value { return reflect.ValueOf(&c.L0).Elem() }, true},
		{"GMap", func(c *Config) reflect.Value { return reflect.ValueOf(&c.GMap).Elem() }, true},
		{"L1", func(c *Config) reflect.Value { return reflect.ValueOf(&c.L1).Elem() }, false},
		{"ModuleSim", func(c *Config) reflect.Value { return reflect.ValueOf(&c.ModuleSim).Elem() }, false},
	}
	// leaves lists the index paths of v's non-struct fields, depth first.
	var leaves func(v reflect.Value, prefix []int) [][]int
	leaves = func(v reflect.Value, prefix []int) [][]int {
		var out [][]int
		for i := range v.NumField() {
			path := append(slices.Clone(prefix), i)
			if f := v.Field(i); f.Kind() == reflect.Struct {
				out = append(out, leaves(f, path)...)
			} else {
				out = append(out, path)
			}
		}
		return out
	}
	for _, p := range parts {
		typ := p.of(&base).Type()
		for _, path := range leaves(p.of(&base), nil) {
			name := p.name + "." + typ.FieldByIndex(path).Name
			var flips []func(reflect.Value)
			switch kind := p.of(&base).FieldByIndex(path).Kind(); kind {
			case reflect.Int:
				flips = append(flips, func(f reflect.Value) { f.SetInt(f.Int() + 1) })
			case reflect.Float64:
				flips = append(flips, func(f reflect.Value) { f.SetFloat(2*f.Float() + 1) })
			case reflect.Bool:
				flips = append(flips, func(f reflect.Value) { f.SetBool(!f.Bool()) })
			case reflect.Slice:
				// New slices: the copy of base shares its arrays.
				flips = append(flips,
					func(f reflect.Value) {
						f.Set(reflect.ValueOf(append(slices.Clone(f.Interface().([]float64)), 1e3)))
					},
					func(f reflect.Value) {
						s := slices.Clone(f.Interface().([]float64))
						s[len(s)-1] = 2*s[len(s)-1] + 1
						f.Set(reflect.ValueOf(s))
					})
			default:
				t.Fatalf("%s is a %s: teach the configuration keys and this test to flip it", name, kind)
			}
			for k, flip := range flips {
				cfg := base
				flip(p.of(&cfg).FieldByIndex(path))
				if treeConfigKey(cfg) == treeConfigKey(base) {
					t.Errorf("%s (flip %d): the tree key does not change", name, k)
				}
				if p.gmap && gmapConfigKey(cfg) == gmapConfigKey(base) {
					t.Errorf("%s (flip %d): the g key does not change", name, k)
				}
			}
		}
	}
}
