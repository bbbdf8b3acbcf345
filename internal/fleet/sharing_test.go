package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"hierctl/internal/ckpt"
	"hierctl/internal/cluster"
	"hierctl/internal/controller"
	"hierctl/internal/core"
	"hierctl/internal/obs"
	"hierctl/internal/workload"
)

// scenarioTenant builds a tenant of `modules` two-computer modules seeded
// from a registered workload scenario, plus the leading bins of its trace.
func scenarioTenant(t *testing.T, scenario string, seed int64, modules, bins int) (TenantConfig, []float64) {
	t.Helper()
	sc, err := workload.LookupScenario(scenario)
	if err != nil {
		t.Fatal(err)
	}
	var spec cluster.Spec
	for m := 0; m < modules; m++ {
		spec.Modules = append(spec.Modules, moduleOf(fmt.Sprintf("M%d", m+1), 2))
	}
	trace, err := sc.Trace(seed)
	if err != nil {
		t.Fatal(err)
	}
	sc.ScaleToCluster(trace, spec.Computers())
	cfg := fastCore()
	cfg.Seed = seed
	cfg.Parallelism = 1
	return TenantConfig{
		Spec:        spec,
		Core:        cfg,
		Store:       sc.StoreConfig(),
		StoreSeed:   seed,
		BinSeconds:  trace.Step,
		Start:       trace.Start,
		Calibration: trace.Values[:16],
		Failures:    sc.FailurePlan(trace),
	}, trace.Values[:bins]
}

// runTenant feeds counts to a fresh tenant of f and returns its decision
// stream and final record, wall-clock fields zeroed.
func runTenant(t *testing.T, f *Fleet, id string, tc TenantConfig, counts []float64) ([]core.BinDecision, *core.Record) {
	t.Helper()
	if err := f.CreateTenant(id, tc); err != nil {
		t.Fatal(err)
	}
	decs := make([]core.BinDecision, 0, len(counts))
	for _, c := range counts {
		dec, err := f.Observe(id, c)
		if err != nil {
			t.Fatal(err)
		}
		decs = append(decs, dec)
	}
	rec, err := f.CloseTenant(id)
	if err != nil {
		t.Fatal(err)
	}
	rec.DecideTime, rec.LearnTime = 0, 0
	return decs, rec
}

// TestSharedArtifactsEquivalence: sharing changes how many copies of an
// artifact exist, never a decision. A tenant that learned its own maps and
// trees (alone in a fresh fleet) and one served another tenant's through
// the store produce the same decision stream and the same final record,
// and a restore into a fresh fleet, which learns them again as a create
// would, continues identically.
//
//hpm:pin sharing
func TestSharedArtifactsEquivalence(t *testing.T) {
	const bins = 24
	for _, scenario := range []string{"flashcrowd", "failstorm", "step"} {
		for _, seed := range []int64{1, 2} {
			for _, modules := range []int{1, 4} {
				name := fmt.Sprintf("%s/seed%d/%dmodules", scenario, seed, modules)
				tc, counts := scenarioTenant(t, scenario, seed, modules, bins)

				private := New(Config{Shards: 1})
				wantDecs, wantRec := runTenant(t, private, "x", tc, counts)
				private.Close()

				shared := New(Config{Shards: 2})
				warm, _ := scenarioTenant(t, scenario, seed+100, modules, bins)
				if err := shared.CreateTenant("warm", warm); err != nil {
					t.Fatal(err)
				}
				learned := shared.Stats().Artifacts

				// Restore-equals-replay through the new layout: snapshot a
				// sharing tenant mid-stream, restore it next to a live tenant
				// of the same fingerprint, finish both.
				if err := shared.CreateTenant("y", tc); err != nil {
					t.Fatal(err)
				}
				for _, c := range counts[:bins/2] {
					if _, err := shared.Observe("y", c); err != nil {
						t.Fatal(err)
					}
				}
				var log bytes.Buffer
				if err := shared.Snapshot(&log); err != nil {
					t.Fatal(err)
				}
				restored := New(Config{Shards: 2})
				if err := restored.Restore(bytes.NewReader(log.Bytes())); err != nil {
					t.Fatal(err)
				}
				for i, c := range counts[bins/2:] {
					dec, err := restored.Observe("y", c)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(dec, wantDecs[bins/2+i]) {
						t.Fatalf("%s: restored tenant diverged at bin %d", name, bins/2+i)
					}
				}
				restored.Close()
				if _, err := shared.CloseTenant("y"); err != nil {
					t.Fatal(err)
				}

				gotDecs, gotRec := runTenant(t, shared, "x", tc, counts)
				if after := shared.Stats().Artifacts; after.GMaps.Learns != learned.GMaps.Learns || after.Trees.Learns != learned.Trees.Learns {
					t.Fatalf("%s: tenant x relearned: %+v -> %+v", name, learned, after)
				}
				shared.Close()
				if !reflect.DeepEqual(gotDecs, wantDecs) {
					t.Errorf("%s: decision streams diverged between private and shared artifacts", name)
				}
				if !reflect.DeepEqual(gotRec, wantRec) {
					t.Errorf("%s: final records diverged between private and shared artifacts", name)
				}
			}
		}
	}
}

// TestArtifactsLearnedOncePerFingerprint: 64 tenants of two shapes over
// the same hardware, created from 4 goroutines, cost one learn per
// distinct fingerprint — one map g for both shapes, one tree J̃ for the
// multi-module shape — and the store is empty again once every tenant,
// including a quarantined one, is closed.
//
//hpm:pin sharing
func TestArtifactsLearnedOncePerFingerprint(t *testing.T) {
	f := panicFleet(t, 4)
	single := quarantineTenantConfig()
	double := quarantineTenantConfig()
	double.Spec = cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2), moduleOf("M2", 2)}}

	const tenants, creators = 64, 4
	var wg sync.WaitGroup
	for g := 0; g < creators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < tenants; i += creators {
				tc := single
				if i%2 == 1 {
					tc = double
				}
				tc.StoreSeed = int64(i + 1)
				if err := f.CreateTenant(fmt.Sprintf("t%02d", i), tc); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	want := core.ArtifactStats{
		GMaps: core.ArtifactKindStats{Held: 1, Learns: 1, Shares: tenants - 1},
		Trees: core.ArtifactKindStats{Held: 1, Learns: 1, Shares: tenants/2 - 1},
	}
	if got := f.Stats().Artifacts; got != want {
		t.Fatalf("store after %d creates: %+v, want %+v", tenants, got, want)
	}

	// Creators racing for one id all build — the losers wait for the
	// winner's learn of this new fingerprint, then share it — before all
	// but one are refused; a refusal must give its references back, or the
	// store would not empty below.
	dup := single
	dup.Core.GMap.QStep = 50
	var won, lost int
	var mu sync.Mutex
	for g := 0; g < creators; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := f.CreateTenant("dup", dup)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				won++
			case errors.Is(err, ErrExists):
				lost++
			default:
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if won != 1 || lost != creators-1 {
		t.Fatalf("racing creates of one id: %d won, %d refused", won, lost)
	}
	if _, err := f.CloseTenant("dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Observe("t00", panicCount); !errors.Is(err, ErrTenantQuarantined) {
		t.Fatalf("tenant t00 did not quarantine: %v", err)
	}
	for i := 0; i < tenants; i++ {
		_, err := f.CloseTenant(fmt.Sprintf("t%02d", i))
		if i == 0 && !errors.Is(err, ErrTenantQuarantined) || i != 0 && err != nil {
			t.Fatalf("close t%02d: %v", i, err)
		}
		if i == tenants-2 {
			if got := f.Stats().Artifacts; got.GMaps.Held != 1 || got.Trees.Held != 1 {
				t.Fatalf("store dropped an artifact its last tenant still holds: %+v", got)
			}
		}
	}
	if got := f.Stats().Artifacts; got.GMaps.Held != 0 || got.Trees.Held != 0 {
		t.Fatalf("store not empty after the last close: %+v", got)
	}

	// Bounded by the live fleet, not by uptime: the next tenant learns anew.
	if err := f.CreateTenant("again", single); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().Artifacts.GMaps; got.Held != 1 || got.Learns != 3 { // shape, dup, shape again
		t.Fatalf("store after re-create: %+v, want 1 held, 3 learns", got)
	}
}

// TestFailedLearnIsNotCached: a construction whose learning fails (here:
// a grid of more cells than a table holds) leaves nothing in the store,
// and the next construction learns. That a failed fingerprint's next acquire
// retries is pinned on the store itself (core's TestArtifactStoreLearnOnce).
func TestFailedLearnIsNotCached(t *testing.T) {
	f := New(Config{Shards: 1})
	defer f.Close()
	bad := batchTenantConfig(1)
	bad.Core.GMap.QStep, bad.Core.GMap.LambdaStep = 1e-12, 1e-12
	if err := f.CreateTenant("a", bad); err == nil {
		t.Fatal("create with an oversized learning grid succeeded")
	}
	if got := f.Stats().Artifacts.GMaps; got.Held != 0 || got.Learns != 0 {
		t.Fatalf("failed learn left %+v in the store", got)
	}
	if err := f.CreateTenant("a", batchTenantConfig(1)); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().Artifacts.GMaps; got.Held != 1 || got.Learns != 1 {
		t.Fatalf("retry: %+v, want 1 held, 1 learn", got)
	}
}

// TestRestoreSharesWithLiveTenants: restoring next to live tenants of the
// same fingerprint keeps one copy — a restored tenant is built as a
// created one is, so it shares the store's — and a failed (all-or-nothing)
// restore gives every reference back.
//
//hpm:pin sharing
func TestRestoreSharesWithLiveTenants(t *testing.T) {
	src := New(Config{Shards: 2})
	defer src.Close()
	for i, id := range []string{"a", "b"} {
		if err := src.CreateTenant(id, batchTenantConfig(int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	var log bytes.Buffer
	if err := src.Snapshot(&log); err != nil {
		t.Fatal(err)
	}

	dst := New(Config{Shards: 2})
	defer dst.Close()
	if err := dst.CreateTenant("live", batchTenantConfig(9)); err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(bytes.NewReader(log.Bytes())); err != nil {
		t.Fatal(err)
	}
	want := core.ArtifactKindStats{Held: 1, Learns: 1, Shares: 2}
	if got := dst.Stats().Artifacts.GMaps; got != want {
		t.Fatalf("store after restore beside a live tenant: %+v, want %+v", got, want)
	}
	// The same log again clashes on ids: nothing registers, nothing leaks.
	if err := dst.Restore(bytes.NewReader(log.Bytes())); !errors.Is(err, ErrExists) {
		t.Fatalf("second restore: %v, want ErrExists", err)
	}
	for _, id := range []string{"live", "a", "b"} {
		if _, err := dst.CloseTenant(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := dst.Stats().Artifacts.GMaps.Held; got != 0 {
		t.Fatalf("store holds %d artifacts after the last close (a refused restore leaked references)", got)
	}
}

// TestRestoreLearnsOnce: restoring N tenants of one fingerprint into an
// empty fleet learns their map once and shares it N−1 times, and every
// restored tenant — and a tenant created after — holds the store's one
// object. A restore with one corrupt checkpoint fails all-or-nothing:
// nothing registers, nothing stays held.
//
//hpm:pin sharing
func TestRestoreLearnsOnce(t *testing.T) {
	const n = 4
	src := New(Config{Shards: 2})
	defer src.Close()
	for i := 0; i < n; i++ {
		id := string(rune('a' + i))
		if err := src.CreateTenant(id, batchTenantConfig(int64(i+1))); err != nil {
			t.Fatal(err)
		}
		if _, err := src.Observe(id, 200+10*float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var log bytes.Buffer
	if err := src.Snapshot(&log); err != nil {
		t.Fatal(err)
	}

	dst := New(Config{Shards: 2})
	defer dst.Close()
	if err := dst.Restore(bytes.NewReader(log.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got, want := dst.Stats().Artifacts.GMaps, (core.ArtifactKindStats{Held: 1, Learns: 1, Shares: n - 1}); got != want {
		t.Fatalf("store after restoring %d tenants of one fingerprint: %+v, want %+v", n, got, want)
	}
	if err := dst.CreateTenant("late", batchTenantConfig(9)); err != nil {
		t.Fatal(err)
	}
	var shared *controller.GMap
	for _, id := range dst.Tenants() {
		tn, err := dst.tenant(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range tn.mgr.Artifacts().GMaps {
			if shared == nil {
				shared = g
			}
			if g != shared {
				t.Fatalf("tenant %s holds a map of its own", id)
			}
		}
	}

	// Two tenants of different grids, one with a corrupt checkpoint: the
	// restore fails all or nothing, whichever tenant built first.
	two := New(Config{Shards: 2})
	defer two.Close()
	wide := batchTenantConfig(2)
	wide.Core.GMap.QStep = 50
	for i, cfg := range []TenantConfig{batchTenantConfig(1), wide} {
		id := string(rune('a' + i))
		if err := two.CreateTenant(id, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := two.Observe(id, 200); err != nil {
			t.Fatal(err)
		}
	}
	snaps, err := two.captureAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	cut := snaps[1].Checkpoint
	snaps[1].Checkpoint = cut[:len(cut)-1]
	log.Reset()
	if _, _, err := writeBaseLog(&log, snaps); err != nil {
		t.Fatal(err)
	}
	empty := New(Config{Shards: 2})
	defer empty.Close()
	if err := empty.Restore(bytes.NewReader(log.Bytes())); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("restore with a corrupt checkpoint: %v, want ckpt.ErrCorrupt", err)
	}
	if got := empty.Tenants(); len(got) != 0 {
		t.Fatalf("failed restore registered %v", got)
	}
	if got := empty.Stats().Artifacts.GMaps; got.Held != 0 {
		t.Fatalf("failed restore left %+v in the store", got)
	}
}

// TestSharedArtifactStress runs every way the fleet touches a shared
// artifact at once, for the race detector: tenants on every shard stepping
// (L1 probing the one shared GMap, L2 the one shared tree) while tenants
// of the same fingerprint are created and closed, and while Snapshot,
// Journal.Append and Compact capture the tenants.
//
//hpm:pin sharing
func TestSharedArtifactStress(t *testing.T) {
	const shards, steppers, rounds = 4, 8, 12
	f := New(Config{Shards: shards})
	defer f.Close()
	tc := quarantineTenantConfig()
	tc.Spec = cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2), moduleOf("M2", 2)}}
	for i := 0; i < steppers; i++ {
		tc.StoreSeed = int64(i + 1)
		if err := f.CreateTenant(fmt.Sprintf("s%d", i), tc); err != nil {
			t.Fatal(err)
		}
	}
	j, err := OpenJournal(f, journalPath(t), JournalConfig{MaxAppends: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	var wg sync.WaitGroup
	run := func(fn func(round int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := fn(r); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < steppers; i++ {
		id := fmt.Sprintf("s%d", i)
		run(func(r int) error {
			_, err := f.Observe(id, float64(150+10*r))
			return err
		})
	}
	run(func(r int) error { // churn: the store's entry gains and loses holders
		id := fmt.Sprintf("churn%d", r)
		if err := f.CreateTenant(id, tc); err != nil {
			return err
		}
		if _, err := f.Observe(id, 200); err != nil {
			return err
		}
		_, err := f.CloseTenant(id)
		return err
	})
	run(func(int) error { return f.Snapshot(&bytes.Buffer{}) })
	run(func(int) error { return j.Append() })
	run(func(r int) error {
		if r%4 != 0 {
			return nil
		}
		return j.Compact()
	})
	wg.Wait()

	if got := f.Stats().Artifacts; got.GMaps.Learns != 1 || got.Trees.Learns != 1 || got.GMaps.Held != 1 || got.Trees.Held != 1 {
		t.Errorf("store after the stress: %+v, want one map and one tree, each learned once", got)
	}
	// What the journal holds restores to the fleet's current state.
	if err := j.Append(); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyJournalFile(j.path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tenants != steppers || rep.Observations != steppers*rounds {
		t.Errorf("journal after the stress: %+v, want %d tenants with %d observations", rep, steppers, steppers*rounds)
	}
}

// TestMultiModuleSharingStress is the -race pin for multi-module tenants
// of one shape sharing the store's learned maps and trees: tenants of one
// L2-active shape (four two-computer modules) step on every shard at once
// under staggered failure plans, so each meets its on/off and availability
// masks at its own time while tenants on other shards decide over the same
// artifacts. Every tenant must end bit-identical — decision stream, state
// and close record — to a twin fed the same counts alone in its own fleet.
//
//hpm:pin sharing
func TestMultiModuleSharingStress(t *testing.T) {
	const shards, tenants, bins = 4, 8, 48
	counts := make([]float64, bins)
	for b := range counts {
		counts[b] = float64(60 + (b*523)%1900) // from one computer's load to all eight
	}
	config := func(i int) TenantConfig {
		tc := quarantineTenantConfig()
		tc.Spec = cluster.Spec{Modules: []cluster.ModuleSpec{
			moduleOf("M1", 2), moduleOf("M2", 2), moduleOf("M3", 2), moduleOf("M4", 2),
		}}
		tc.Core.Parallelism = 1
		tc.StoreSeed = int64(i + 1)
		at := func(bin int) float64 { return tc.BinSeconds * float64(bin) }
		whole := (i + 2) % 4
		tc.Failures = []workload.FailureEvent{
			{At: at(1 + i), Module: i % 4, Comp: i % 2},
			{At: at(3 + i), Module: whole, Comp: 0},
			{At: at(3 + i), Module: whole, Comp: 1},
			{At: at(9 + i), Module: i % 4, Comp: i % 2, Repair: true},
			{At: at(14 + i), Module: whole, Comp: 0, Repair: true},
			{At: at(20 + i), Module: whole, Comp: 1, Repair: true},
		}
		return tc
	}

	f := New(Config{Shards: shards})
	defer f.Close()
	for i := 0; i < tenants; i++ {
		if err := f.CreateTenant(fmt.Sprintf("t%d", i), config(i)); err != nil {
			t.Fatal(err)
		}
	}
	decs := make([][]core.BinDecision, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, c := range counts {
				dec, err := f.Observe(fmt.Sprintf("t%d", i), c)
				if err != nil {
					t.Error(err)
					return
				}
				decs[i] = append(decs[i], dec)
			}
		}(i)
	}
	wg.Wait()

	for i := 0; i < tenants; i++ {
		id := fmt.Sprintf("t%d", i)
		twin := New(Config{Shards: 1})
		if err := twin.CreateTenant(id, config(i)); err != nil {
			t.Fatal(err)
		}
		for b, c := range counts {
			dec, err := twin.Observe(id, c)
			if err != nil {
				t.Fatal(err)
			}
			if b < len(decs[i]) && !reflect.DeepEqual(decs[i][b], dec) {
				t.Fatalf("tenant %s, bin %d: decision %+v beside seven sharers, %+v alone", id, b, decs[i][b], dec)
			}
		}
		got, want := closeState(t, f, id), closeState(t, twin, id)
		twin.Close()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("tenant %s beside seven sharers:\n got %+v\nwant %+v (alone)", id, got, want)
		}
	}
}

// TestShardScratchSharedAcrossShapes: a shard's controller scratch serves
// every tenant it steps, whatever their shapes, without a bit of any
// decision moving. One one-shard fleet holds a two-computer tenant, a
// four-computer module and four modules of four, each under a failure plan
// (the cluster loses a whole module for a while), steps them interleaved —
// the largest first, so the small ones decide in a scratch grown past them
// — and is journaled and crashed midway; a fresh fleet recovers them, its
// restore workers replaying the journaled counts in their own scratch, and
// steps them to the end. Each must equal a lone twin in a fleet of its
// own, bin for bin and at the end: decisions, State, the newest flight
// records and the close record. The budget half of the property, which a
// fleet tenant cannot configure, is core's TestSessionsShareScratch.
//
//hpm:pin sharing
func TestShardScratchSharedAcrossShapes(t *testing.T) {
	const bins, pre, journaled = 24, 4, 8
	shapes := []struct {
		id      string
		modules int
		size    int
	}{{"cluster", 4, 4}, {"four", 1, 4}, {"two", 1, 2}}
	configs := make([]TenantConfig, len(shapes))
	counts := make([][]float64, len(shapes))
	for s, sh := range shapes {
		var spec cluster.Spec
		for m := range sh.modules {
			spec.Modules = append(spec.Modules, moduleOf(fmt.Sprintf("M%d", m+1), sh.size))
		}
		cfg := fastCore()
		cfg.Parallelism = 1
		cfg.Seed = int64(s + 3)
		failures := []workload.FailureEvent{{At: 150, Module: 0, Comp: 1}, {At: 450, Module: 0, Comp: 1, Repair: true}}
		if sh.modules > 1 {
			for c := range sh.size {
				failures = append(failures,
					workload.FailureEvent{At: 240, Module: 1, Comp: c},
					workload.FailureEvent{At: 600, Module: 1, Comp: c, Repair: true})
			}
		}
		configs[s] = TenantConfig{
			Spec:             spec,
			Core:             cfg,
			Store:            testStoreConfig(),
			StoreSeed:        int64(s + 11),
			BinSeconds:       30,
			Failures:         failures,
			TelemetryRecords: 2048,
		}
		n := float64(spec.Computers())
		for b := range bins {
			counts[s] = append(counts[s], math.Round(n*(250+200*math.Sin(float64(b+3*s)/3))))
		}
	}

	// The lone twins, each in a fleet of its own.
	type outcome struct {
		decs   []core.BinDecision
		state  TenantState
		recs   []obs.Record
		cursor uint64
		close  *core.Record
	}
	finish := func(f *Fleet, id string, o *outcome, newest int) {
		t.Helper()
		var err error
		if o.state, err = f.State(id); err != nil {
			t.Fatal(err)
		}
		if o.recs, o.cursor, err = f.Telemetry(id, newest); err != nil {
			t.Fatal(err)
		}
		for i := range o.recs {
			o.recs[i].DecideNs = 0
		}
		if o.close, err = f.CloseTenant(id); err != nil {
			t.Fatal(err)
		}
		o.close.DecideTime, o.close.LearnTime = 0, 0
	}
	twins := make([]outcome, len(shapes))
	twinFleets := make([]*Fleet, len(shapes))
	for s, sh := range shapes {
		f := New(Config{Shards: 1})
		defer f.Close()
		if err := f.CreateTenant(sh.id, configs[s]); err != nil {
			t.Fatal(err)
		}
		for _, c := range counts[s] {
			dec, err := f.Observe(sh.id, c)
			if err != nil {
				t.Fatal(err)
			}
			twins[s].decs = append(twins[s].decs, dec)
		}
		twinFleets[s] = f
	}

	shared := make([]outcome, len(shapes))
	step := func(f *Fleet, from, to int) {
		t.Helper()
		for b := from; b < to; b++ {
			for s, sh := range shapes {
				dec, err := f.Observe(sh.id, counts[s][b])
				if err != nil {
					t.Fatal(err)
				}
				shared[s].decs = append(shared[s].decs, dec)
			}
		}
	}
	path := journalPath(t)
	first := New(Config{Shards: 1})
	for s, sh := range shapes {
		if err := first.CreateTenant(sh.id, configs[s]); err != nil {
			t.Fatal(err)
		}
	}
	step(first, 0, pre)
	j, err := OpenJournal(first, path, JournalConfig{CompactFactor: 1e9, MaxAppends: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	step(first, pre, pre+journaled)
	if err := j.Append(); err != nil {
		t.Fatal(err)
	}
	first.Close() // the crash: nothing past the Append survives

	second := New(Config{Shards: 1})
	defer second.Close()
	j2, err := OpenJournal(second, path, JournalConfig{CompactFactor: 1e9, MaxAppends: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	step(second, pre+journaled, bins)

	for s, sh := range shapes {
		for b := range bins {
			if !reflect.DeepEqual(shared[s].decs[b], twins[s].decs[b]) {
				t.Fatalf("%s bin %d: decided\n%+v\nsharing its shard's scratch, alone\n%+v", sh.id, b, shared[s].decs[b], twins[s].decs[b])
			}
		}
		// The recovered ring holds what the tenant recorded since its
		// restore began; the twin's newest records of as many must match.
		recs, _, err := second.Telemetry(sh.id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			t.Fatalf("%s: no flight records after the restore", sh.id)
		}
		finish(second, sh.id, &shared[s], len(recs))
		finish(twinFleets[s], sh.id, &twins[s], len(recs))
		got, want := shared[s], twins[s]
		if !reflect.DeepEqual(got.state, want.state) {
			t.Errorf("%s: state %+v, alone %+v", sh.id, got.state, want.state)
		}
		if got.cursor != want.cursor || !reflect.DeepEqual(got.recs, want.recs) {
			t.Errorf("%s: the newest %d flight records (cursor %d) differ from the twin's (cursor %d)", sh.id, len(got.recs), got.cursor, want.cursor)
		}
		if !reflect.DeepEqual(got.close, want.close) {
			t.Errorf("%s: close record differs from the twin's", sh.id)
		}
	}
}
