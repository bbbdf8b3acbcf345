package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hierctl/internal/cluster"
)

// batchTenantConfig builds a batch-test tenant: coarse grids, serial
// decision pipeline (so replicas across fleets are comparable), and a
// shared artifact cache so only the first tenant pays offline learning.
func batchTenantConfig(artifactDir string, storeSeed int64) TenantConfig {
	cfg := fastCore()
	cfg.Parallelism = 1
	cfg.RecordFrequencies = false
	cfg.ArtifactDir = artifactDir
	return TenantConfig{
		Spec:       cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2)}},
		Core:       cfg,
		Store:      testStoreConfig(),
		StoreSeed:  storeSeed,
		BinSeconds: 30,
	}
}

// splitChunks chops a count stream into random-length runs (1–3 bins),
// preserving order — the shapes a batching client would produce.
func splitChunks(rng *rand.Rand, counts []float64) [][]float64 {
	var chunks [][]float64
	for i := 0; i < len(counts); {
		n := 1 + rng.Intn(3)
		if i+n > len(counts) {
			n = len(counts) - i
		}
		chunks = append(chunks, counts[i:i+n])
		i += n
	}
	return chunks
}

// TestObserveBatchEquivalence is the batch≡sequential property test: for
// random chunkings and interleavings of per-tenant count streams — across
// seeds, shard counts, and client parallelism — a fleet fed through
// ObserveBatch finishes with records bit-identical to a fleet fed the
// same streams one bin at a time through Observe. Batches mix entries
// from different tenants, repeat a tenant within one batch, and at
// parallelism 4 arrive from concurrent goroutines (disjoint tenant sets,
// so per-tenant order stays defined).
func TestObserveBatchEquivalence(t *testing.T) {
	const tenants = 4
	const bins = 8
	dir := t.TempDir()
	counts := make([][]float64, tenants)
	for i := range counts {
		counts[i] = make([]float64, bins)
		for b := range counts[i] {
			counts[i][b] = 150 + 50*float64((i*7+b*3)%5)
		}
	}
	ids := make([]string, tenants)
	for i := range ids {
		ids[i] = string(rune('a' + i))
	}

	cases := []struct {
		seed        int64
		shards, par int
	}{
		{1, 1, 1}, {2, 3, 1}, {3, 1, 4}, {4, 3, 4}, {5, 3, 1}, {6, 3, 4},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("seed%d_shards%d_par%d", c.seed, c.shards, c.par), func(t *testing.T) {
			// Reference: the same streams, one bin at a time.
			seq := New(Config{Shards: c.shards})
			defer seq.Close()
			for i, id := range ids {
				if err := seq.CreateTenant(id, batchTenantConfig(dir, int64(i+1))); err != nil {
					t.Fatal(err)
				}
				for _, count := range counts[i] {
					if _, err := seq.Observe(id, count); err != nil {
						t.Fatal(err)
					}
				}
			}

			bf := New(Config{Shards: c.shards})
			defer bf.Close()
			for i, id := range ids {
				if err := bf.CreateTenant(id, batchTenantConfig(dir, int64(i+1))); err != nil {
					t.Fatal(err)
				}
			}

			checkResults := func(results []BatchResult, err error) error {
				if err != nil {
					return err
				}
				for _, r := range results {
					if r.Err != nil {
						return fmt.Errorf("entry for %s: %w", r.Tenant, r.Err)
					}
					if r.LastDecision == nil {
						return fmt.Errorf("entry for %s: no decision", r.Tenant)
					}
				}
				return nil
			}

			if c.par == 1 {
				// One client: random interleaving of every tenant's
				// chunks into mixed batches, per-tenant chunk order kept.
				rng := rand.New(rand.NewSource(c.seed))
				queues := make([][][]float64, tenants)
				remaining := 0
				for i := range queues {
					queues[i] = splitChunks(rng, counts[i])
					remaining += len(queues[i])
				}
				var batch []BatchEntry
				for remaining > 0 {
					i := rng.Intn(tenants)
					if len(queues[i]) == 0 {
						continue
					}
					batch = append(batch, BatchEntry{Tenant: ids[i], Counts: queues[i][0]})
					queues[i] = queues[i][1:]
					remaining--
					if rng.Intn(3) == 0 || remaining == 0 {
						results, err := bf.ObserveBatch(batch)
						if err := checkResults(results, err); err != nil {
							t.Fatal(err)
						}
						batch = batch[:0]
					}
				}
			} else {
				// Concurrent clients, one tenant each: batches from
				// different goroutines race on the shards, but each
				// tenant's chunks arrive in order.
				errc := make(chan error, tenants)
				for i := 0; i < tenants; i++ {
					go func(i int) {
						rng := rand.New(rand.NewSource(c.seed*100 + int64(i)))
						for _, chunk := range splitChunks(rng, counts[i]) {
							results, err := bf.ObserveBatch([]BatchEntry{{Tenant: ids[i], Counts: chunk}})
							if err := checkResults(results, err); err != nil {
								errc <- err
								return
							}
						}
						errc <- nil
					}(i)
				}
				for i := 0; i < tenants; i++ {
					if err := <-errc; err != nil {
						t.Fatal(err)
					}
				}
			}

			for _, id := range ids {
				want, err := seq.CloseTenant(id)
				if err != nil {
					t.Fatal(err)
				}
				got, err := bf.CloseTenant(id)
				if err != nil {
					t.Fatal(err)
				}
				recordsIdentical(t, want, got)
			}
		})
	}
}

// TestObserveBatchErrors covers the per-entry error contract: an unknown
// tenant mid-batch fails only its own entry, empty entries are validated
// no-ops (unknown ids still fail), results stay index-aligned, and a
// closed fleet fails the whole call.
func TestObserveBatchErrors(t *testing.T) {
	f := New(Config{Shards: 2})
	defer f.Close()
	if err := f.CreateTenant("x", batchTenantConfig(t.TempDir(), 1)); err != nil {
		t.Fatal(err)
	}
	results, err := f.ObserveBatch([]BatchEntry{
		{Tenant: "x", Counts: []float64{200, 250}},
		{Tenant: "ghost", Counts: []float64{100}},
		{Tenant: "x", Counts: nil},
		{Tenant: "x", Counts: []float64{300}},
		{Tenant: "ghost", Counts: nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d results, want 5", len(results))
	}
	if results[0].Err != nil || results[0].Applied != 2 || results[0].LastDecision == nil {
		t.Errorf("entry 0: %+v", results[0])
	}
	if !errors.Is(results[1].Err, ErrNotFound) {
		t.Errorf("unknown tenant mid-batch: got %v, want ErrNotFound", results[1].Err)
	}
	if results[2].Err != nil || results[2].Applied != 0 {
		t.Errorf("empty entry: %+v", results[2])
	}
	if results[3].Err != nil || results[3].Applied != 1 {
		t.Errorf("entry after failed entry: %+v", results[3])
	}
	// Empty entries are still validated: an unknown tenant with no bins
	// fails like any other, it is not a silent success.
	if !errors.Is(results[4].Err, ErrNotFound) {
		t.Errorf("empty entry for unknown tenant: got %v, want ErrNotFound", results[4].Err)
	}
	st, err := f.State("x")
	if err != nil {
		t.Fatal(err)
	}
	if st.Bins != 3 {
		t.Errorf("tenant at %d bins, want 3", st.Bins)
	}

	f.Close()
	if _, err := f.ObserveBatch([]BatchEntry{{Tenant: "x", Counts: []float64{100}}}); !errors.Is(err, ErrClosed) {
		t.Errorf("batch after close: got %v, want ErrClosed", err)
	}
}

// TestObserveBatchQueueFull pins the backpressure boundary: with the
// shard wedged and its queue at QueueDepth, entries fail fast with
// ErrQueueFull — including later same-tenant entries even as slots free
// up (applying them would gap the tenant's stream) — nothing is applied,
// the reject counter advances, and the same entries succeed on retry.
func TestObserveBatchQueueFull(t *testing.T) {
	f := New(Config{Shards: 1, QueueDepth: 1})
	defer f.Close()
	if err := f.CreateTenant("x", batchTenantConfig(t.TempDir(), 1)); err != nil {
		t.Fatal(err)
	}

	// Wedge the shard on a job we control, then fill the queue's single
	// slot; the next enqueue cannot succeed until both are released.
	release := make(chan struct{})
	wedged := make(chan struct{})
	f.shards[0].jobs <- funcJob(func() { close(wedged); <-release })
	<-wedged
	drained := make(chan struct{})
	f.shards[0].jobs <- funcJob(func() { close(drained) })

	entries := []BatchEntry{
		{Tenant: "x", Counts: []float64{200}},
		{Tenant: "x", Counts: []float64{250}},
	}
	results, err := f.ObserveBatch(entries)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, ErrQueueFull) {
			t.Errorf("entry %d: got %v, want ErrQueueFull", i, r.Err)
		}
		if r.Applied != 0 {
			t.Errorf("entry %d applied %d bins through a full queue", i, r.Applied)
		}
	}
	if got := f.Stats().QueueRejects; got != 2 {
		t.Errorf("queue rejects = %d, want 2", got)
	}
	close(release)
	<-drained
	st, err := f.State("x")
	if err != nil {
		t.Fatal(err)
	}
	if st.Bins != 0 {
		t.Errorf("rejected entries reached the tenant: %d bins", st.Bins)
	}

	// Retry after drain: the same entries apply cleanly, in order. One call
	// each — a call returns once its entry ran, so the single queue slot is
	// free again; offered together, the second entry races the shard's
	// dequeue of the first for that slot.
	for i := range entries {
		results, err = f.ObserveBatch(entries[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		if r := results[0]; r.Err != nil || r.Applied != 1 {
			t.Errorf("retry entry %d: %+v", i, r)
		}
	}
	st, err = f.State("x")
	if err != nil {
		t.Fatal(err)
	}
	if st.Bins != 2 {
		t.Errorf("tenant at %d bins after retry, want 2", st.Bins)
	}
}

// TestObserveBatchStress hammers ObserveBatch from concurrent clients
// while snapshots, state listings, stats, and queue-depth reads run
// against the same fleet — the -race pin for the ingest layer. Outcomes
// are checked loosely (every submitted bin lands); bit-identical replay
// is TestObserveBatchEquivalence's job.
func TestObserveBatchStress(t *testing.T) {
	const clients = 4
	const batches = 12
	dir := t.TempDir()
	f := New(Config{Shards: 2})
	defer f.Close()
	ids := make([]string, clients)
	for i := range ids {
		ids[i] = string(rune('a' + i))
		if err := f.CreateTenant(ids[i], batchTenantConfig(dir, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := f.Snapshot(&buf); err != nil {
				t.Error(err)
				return
			}
			f.States()
			f.Stats()
			f.QueueDepths()
		}
	}()

	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			for b := 0; b < batches; b++ {
				entries := []BatchEntry{
					{Tenant: ids[i], Counts: []float64{150, 200}},
					{Tenant: ids[(i+1)%clients], Counts: nil},
					{Tenant: ids[i], Counts: []float64{250}},
				}
				results, err := f.ObserveBatch(entries)
				if err != nil {
					errc <- err
					return
				}
				for _, r := range results {
					if r.Err != nil {
						errc <- fmt.Errorf("batch %d entry %s: %w", b, r.Tenant, r.Err)
						return
					}
				}
			}
			errc <- nil
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()

	for _, id := range ids {
		st, err := f.State(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Bins != batches*3 {
			t.Errorf("tenant %s at %d bins, want %d", id, st.Bins, batches*3)
		}
	}
	stats := f.Stats()
	if stats.Observations < int64(clients*batches*3) {
		t.Errorf("observations = %d, want >= %d", stats.Observations, clients*batches*3)
	}
}

// TestSharedPoolStress is the -race pin for the pools every shard shares —
// request batches and queue blocks — and the determinism pin across them:
// tenants with backlogs of thousands of jobs (several blocks a computer)
// step on four shards at once while other tenants are created, loaded,
// quarantined mid-backlog and closed. Every stepping tenant must end where
// a twin fed the same counts alone on one shard ends — same state, same
// decision, same close record — whatever memory the pools handed it.
func TestSharedPoolStress(t *testing.T) {
	const shards, steppers, rounds = 4, 6, 6
	counts := make([]float64, 4*rounds)
	for i := range counts {
		counts[i] = 300
		if i%4 == 0 {
			counts[i] = 6000 // ~2,600 jobs past what two computers serve in a bin
		}
	}
	tc := quarantineTenantConfig()
	f := panicFleet(t, shards)
	for i := 0; i < steppers; i++ {
		tc.StoreSeed = int64(i + 1)
		if err := f.CreateTenant(fmt.Sprintf("s%d", i), tc); err != nil {
			t.Fatal(err)
		}
	}
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
			results, err := f.ObserveBatch([]BatchEntry{{Tenant: id, Counts: counts[4*r : 4*r+4]}})
			if err == nil {
				err = results[0].Err
			}
			return err
		})
	}
	run(func(r int) error { // churn: backlogs abandoned by a fault and by a close
		for _, id := range []string{fmt.Sprintf("faulty%d", r), fmt.Sprintf("closed%d", r)} {
			if err := f.CreateTenant(id, tc); err != nil {
				return err
			}
			if _, err := f.Observe(id, 8000); err != nil {
				return err
			}
			if id[0] == 'f' {
				if _, err := f.Observe(id, panicCount); !errors.Is(err, ErrTenantQuarantined) {
					return fmt.Errorf("tenant %s: fault returned %v, want ErrTenantQuarantined", id, err)
				}
			}
			if _, err := f.CloseTenant(id); err != nil && !errors.Is(err, ErrTenantQuarantined) {
				return err
			}
		}
		return nil
	})
	wg.Wait()

	twin := New(Config{Shards: 1})
	defer twin.Close()
	for i := 0; i < steppers; i++ {
		id := fmt.Sprintf("s%d", i)
		tc.StoreSeed = int64(i + 1)
		if err := twin.CreateTenant(id, tc); err != nil {
			t.Fatal(err)
		}
		for _, c := range counts {
			if _, err := twin.Observe(id, c); err != nil {
				t.Fatal(err)
			}
		}
		got, want := closeState(t, f, id), closeState(t, twin, id)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("tenant %s under shared pools:\n got %+v\nwant %+v (alone on one shard)", id, got, want)
		}
	}
}

// closeState closes tenant id and returns its final state and close
// record, wall-clock fields cleared.
func closeState(t *testing.T, f *Fleet, id string) [2]any {
	t.Helper()
	st, err := f.State(id)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := f.CloseTenant(id)
	if err != nil {
		t.Fatal(err)
	}
	rec.L0Time, rec.L1Time, rec.L2Time, rec.LearnTime = 0, 0, 0, 0
	return [2]any{st, *rec}
}

// TestObserveBatchClosedMidCall closes fleets under in-flight batch calls
// (run under -race), many times over: every call returns promptly, and
// every entry reports either a finished job — all of its bins applied, a
// decision if asked for — or ErrClosed, never a half-read cell. The
// per-call completion counter must not report a finished job as closed nor
// wait for a job that will never run. Calls alternate between ObserveBatch
// and a warm ObserveBatchInto, so the cells are pooled ones: a cell handed
// back to the pool while an abandoned job could still write it would race
// the next call's use of it. A client gives its result slice up at the
// first ErrClosed, as the contract asks.
func TestObserveBatchClosedMidCall(t *testing.T) {
	const clients = 4
	const fleets = 12
	dir := t.TempDir()
	counts := make([]float64, 24)
	for i := range counts {
		counts[i] = 150 + float64(10*i)
	}
	for round := 0; round < fleets; round++ {
		f := New(Config{Shards: 2})
		ids := make([]string, clients)
		for i := range ids {
			ids[i] = string(rune('a' + i))
			if err := f.CreateTenant(ids[i], batchTenantConfig(dir, int64(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		started := make(chan struct{}, clients)
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var dst []BatchResult
				for call := 0; ; call++ {
					entries := []BatchEntry{
						{Tenant: ids[i], Counts: counts},
						{Tenant: ids[(i+1)%clients], Counts: counts[:3]},
					}
					decisions := call%2 == 0
					var results []BatchResult
					var err error
					if decisions {
						results, err = f.ObserveBatch(entries)
					} else {
						dst, err = f.ObserveBatchInto(dst[:0], entries, false)
						results = dst
					}
					if call == 0 {
						started <- struct{}{}
					}
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil {
						t.Errorf("client %d: %v", i, err)
						return
					}
					for e, r := range results {
						want := len(counts)
						if e == 1 {
							want = 3
						}
						switch {
						case errors.Is(r.Err, ErrClosed):
							if r.Applied != 0 || r.LastDecision != nil {
								t.Errorf("client %d entry %d: ErrClosed with a read cell (%d applied)", i, e, r.Applied)
							}
							dst = nil
						case errors.Is(r.Err, ErrQueueFull):
						case r.Err != nil:
							t.Errorf("client %d entry %d: %v", i, e, r.Err)
						case r.Applied != want || (r.LastDecision != nil) != decisions:
							t.Errorf("client %d entry %d: %d of %d bins applied, decision %v", i, e, r.Applied, want, r.LastDecision != nil)
						}
					}
				}
			}(i)
		}
		for i := 0; i < clients; i++ {
			<-started
		}
		f.Close()
		wg.Wait()
	}
}

// TestStateAfterSilentBatch: skipping a decision where nobody reads it
// loses nothing. A tenant fed through decisions-off batches reports the
// same State — last decision included — as a twin fed the same bins one
// Observe at a time, before and after a snapshot→restore (whose replay
// builds no decision either); and a tenant quarantined on its very first
// bin, which never had a decision in force, reports none.
func TestStateAfterSilentBatch(t *testing.T) {
	dir := t.TempDir()
	counts := []float64{300, 520, 12, 700, 150, 5, 480}
	seq := panicFleet(t, 2)
	silent := panicFleet(t, 2)
	for _, f := range []*Fleet{seq, silent} {
		for i, id := range []string{"a", "b", "fresh", "doomed"} {
			if err := f.CreateTenant(id, batchTenantConfig(dir, int64(i+1))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range []string{"a", "b"} {
		for _, c := range counts {
			if _, err := seq.Observe(id, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := seq.Observe("doomed", panicCount); !errors.Is(err, ErrTenantQuarantined) {
		t.Fatalf("doomed via Observe: %v, want ErrTenantQuarantined", err)
	}
	results, err := silent.ObserveBatchInto(nil, []BatchEntry{
		{Tenant: "a", Counts: counts[:3]},
		{Tenant: "b", Counts: counts},
		{Tenant: "a", Counts: counts[3:]},
		{Tenant: "doomed", Counts: []float64{panicCount, 100}},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.LastDecision != nil {
			t.Errorf("entry %d: a decisions-off call returned a decision", i)
		}
		if doomed := r.Tenant == "doomed"; errors.Is(r.Err, ErrTenantQuarantined) != doomed || (r.Err != nil) != doomed {
			t.Errorf("entry %d (%s): err %v", i, r.Tenant, r.Err)
		}
	}

	check := func(stage string, got *Fleet) {
		t.Helper()
		for _, id := range []string{"a", "b", "fresh", "doomed"} {
			want, err := seq.State(id)
			if err != nil {
				t.Fatal(err)
			}
			have, err := got.State(id)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, have) {
				t.Errorf("%s: tenant %s state after silent batches\n got %+v\nwant %+v", stage, id, have, want)
			}
			if stepped := id == "a" || id == "b"; (have.LastDecision != nil) != stepped {
				t.Errorf("%s: tenant %s lastDecision present = %v, want %v", stage, id, have.LastDecision != nil, stepped)
			}
		}
	}
	check("live", silent)

	var buf bytes.Buffer
	if err := silent.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := New(Config{Shards: 2})
	defer restored.Close()
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	check("restored", restored)
}
