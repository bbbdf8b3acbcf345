package fleet

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sweepTenantConfig is a small recording tenant: a 2-computer module with
// a ring that holds several bins of records.
func sweepTenantConfig(seed int64) TenantConfig {
	tc := batchTenantConfig(seed)
	tc.TelemetryRecords = 256
	return tc
}

// TestObsLog pins the journaled tenant's count log: absolute bin indices
// from its start, tail views that later adds leave as they were, and a
// dropped prefix that keeps the backing array for the counts after it.
func TestObsLog(t *testing.T) {
	var l obsLog
	if l.len() != 0 || l.tail(0) != nil {
		t.Fatalf("empty log: len %d, tail %v", l.len(), l.tail(0))
	}
	l.restart(100)
	const n = 1031
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(3 * i)
		l.add(want[i])
	}
	if l.len() != 100+n {
		t.Fatalf("len = %d, want %d", l.len(), 100+n)
	}
	for _, from := range []int{100, 101, 611, 100 + n - 1} {
		if got := l.tail(from); !reflect.DeepEqual(got, want[from-100:]) {
			t.Errorf("tail(%d): %d entries starting %v, want %d starting %v", from, len(got), got[:1], n-from+100, want[from-100])
		}
	}
	if got := l.tail(100 + n); got != nil {
		t.Errorf("tail(len) = %v, want nil", got)
	}
	var v obsLog
	v.add(1)
	v.add(2)
	view := v.tail(0)
	if &view[0] != &v.counts[0] {
		t.Error("tail copied the log")
	}
	for range 100 { // past the array's capacity: add moves the log
		v.add(-1)
	}
	if !reflect.DeepEqual(view, []float64{1, 2}) {
		t.Errorf("adds rewrote a view tail handed out: %v", view)
	}
	backing := &l.counts[:1][0]
	l.drop(600)
	if got := l.tail(600); !reflect.DeepEqual(got, want[500:]) || l.len() != 100+n {
		t.Fatalf("after drop(600): len %d, tail %d entries", l.len(), len(got))
	}
	if &l.counts[:1][0] != backing {
		t.Error("drop moved the log off its backing array")
	}
	l.drop(550) // before the start: nothing to drop
	if l.from != 600 {
		t.Errorf("drop below the start moved it to %d", l.from)
	}
	l.drop(5000) // past the end: an empty log from there
	if l.len() != 5000 || l.tail(5000) != nil {
		t.Errorf("drop past the end: len %d, tail %v", l.len(), l.tail(5000))
	}
}

func TestTopTenants(t *testing.T) {
	var top TopTenants
	top.add("zero", 0)
	if top[0] != (TenantCount{}) {
		t.Fatalf("a zero count was ranked: %v", top)
	}
	for i := 0; i < 20; i++ { // counts 0..19 in a scrambled order, 5 twice
		n := uint64(i * 7 % 20)
		top.add(fmt.Sprintf("t%02d", n), n)
	}
	top.add("t05b", 5)
	top.add("a19", 19)
	want := TopTenants{{"a19", 19}, {"t19", 19}, {"t18", 18}, {"t17", 17}, {"t16", 16}, {"t15", 15}, {"t14", 14}, {"t13", 13}}
	if top != want {
		t.Errorf("ranking = %v, want %v", top, want)
	}
}

// TestSweepYieldsInSlices: a sweep job looks at sweepSlice tenants and goes
// back to the end of its shard's queue, so ingest queued behind it runs
// between slices; when the queue has no room — a shard cannot wait on
// itself — the job keeps its turn instead of blocking. Either way every
// tenant is visited exactly once. The job is driven by hand here, with the
// shard parked, to make both queue states certain.
func TestSweepYieldsInSlices(t *testing.T) {
	const tenants, depth = 2*sweepSlice + 5, 4
	f := New(Config{Shards: 1, QueueDepth: depth})
	defer f.Close()
	tc := batchTenantConfig(1)
	for i := 0; i < tenants; i++ {
		if err := f.CreateTenant(fmt.Sprintf("t%03d", i), tc); err != nil {
			t.Fatal(err)
		}
	}
	sh := f.shards[0]
	parked, gate := make(chan struct{}), make(chan struct{})
	defer close(gate)
	sh.jobs <- funcJob(func() { close(parked); <-gate })
	<-parked
	var visits int
	finished := func(j *sweepJob) bool { return j.call.pending.Load() == 0 }
	newJob := func() *sweepJob {
		c := &sweepCall{jobs: make([]sweepJob, 1)}
		for _, id := range f.Tenants() {
			c.all = append(c.all, f.tenants[id])
		}
		c.visit = func(pos int, _ *tenant) {
			if pos != visits {
				t.Fatalf("visit %d at position %d", visits, pos)
			}
			visits++
		}
		c.arm(1)
		c.jobs[0] = sweepJob{call: c, home: sh}
		return &c.jobs[0]
	}

	for len(sh.jobs) < depth {
		sh.jobs <- funcJob(func() {})
	}
	full := newJob()
	full.run()
	if visits != tenants || !finished(full) {
		t.Fatalf("full queue: %d of %d tenants visited in one turn, finished %v", visits, tenants, finished(full))
	}

	<-sh.jobs // room for one
	visits = 0
	yielding := newJob()
	yielding.run()
	if visits != sweepSlice || finished(yielding) || len(sh.jobs) != depth {
		t.Fatalf("queue with room: %d tenants visited in the first turn (want %d), finished %v, queue %d of %d",
			visits, sweepSlice, finished(yielding), len(sh.jobs), depth)
	}
	for !finished(yielding) { // play the shard: run what is queued
		(<-sh.jobs).run()
	}
	if visits != tenants {
		t.Fatalf("queue with room: %d of %d tenants visited", visits, tenants)
	}
}

// TestTelemetrySummaryAllocsFlatInTenants pins the cost of the fleet call
// behind a metrics scrape: TelemetrySummary allocates nothing whether the
// fleet hosts 16 tenants or 512 — each shard's fold is read in place,
// nothing per tenant.
func TestTelemetrySummaryAllocsFlatInTenants(t *testing.T) {
	for _, tenants := range []int{16, 512} {
		f := New(Config{Shards: 2, QueueDepth: tenants})
		entries := make([]BatchEntry, tenants)
		for i := range entries {
			id := fmt.Sprintf("t%03d", i)
			if err := f.CreateTenant(id, sweepTenantConfig(int64(i+1))); err != nil {
				t.Fatal(err)
			}
			entries[i] = BatchEntry{Tenant: id, Counts: []float64{2000, 100}}
		}
		if _, err := f.ObserveBatch(entries); err != nil {
			t.Fatal(err)
		}
		sum, err := f.TelemetrySummary()
		if err != nil {
			t.Fatal(err)
		}
		if got := sum.Levels[0].Decisions; got < uint64(2*tenants) || sum.Operational < tenants || sum.Top.QoS[TopK-1].Count == 0 {
			t.Fatalf("%d tenants: %d L0 decisions, %d operational, ranking %v", tenants, got, sum.Operational, sum.Top.QoS)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if _, err := f.TelemetrySummary(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("TelemetrySummary allocates %v times with %d tenants, want 0", allocs, tenants)
		}
		f.Close()
	}
}

// TestTelemetrySummaryIntoWarmAllocs: a warm scrape — TelemetrySummary
// writing into the caller's summary, the shards' folds read in place —
// allocates nothing and reads the same as the first, non-empty read; a
// closed fleet reports ErrClosed, and a fresh fleet opened after it reads
// a zero summary.
func TestTelemetrySummaryIntoWarmAllocs(t *testing.T) {
	f := New(Config{Shards: 3})
	entries := make([]BatchEntry, 12)
	for i := range entries {
		id := fmt.Sprintf("t%02d", i)
		if err := f.CreateTenant(id, sweepTenantConfig(int64(i+1))); err != nil {
			t.Fatal(err)
		}
		entries[i] = BatchEntry{Tenant: id, Counts: []float64{2000, 100}}
	}
	if _, err := f.ObserveBatch(entries); err != nil {
		t.Fatal(err)
	}
	want, err := f.TelemetrySummary()
	if err != nil {
		t.Fatal(err)
	}
	if want.Top.QoS[TopK-1].Count == 0 {
		t.Fatalf("summary after ingest ranks too few tenants: %+v", want)
	}
	var got TelemetrySummary
	if allocs := testing.AllocsPerRun(50, func() {
		if got, err = f.TelemetrySummary(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a warm TelemetrySummary allocates %v times, want 0", allocs)
	}
	if got != want {
		t.Fatalf("warm read %+v, first read %+v", got, want)
	}
	f.Close()
	if _, err := f.TelemetrySummary(); err != ErrClosed {
		t.Fatalf("read of a closed fleet: %v, want ErrClosed", err)
	}
	g := New(Config{Shards: 2})
	defer g.Close()
	if sum, err := g.TelemetrySummary(); err != nil || sum != (TelemetrySummary{}) {
		t.Fatalf("read of an empty fleet after a closed one: %v, %+v", err, sum)
	}
}

// TestTelemetrySummaryIgnoresBusyShard: a scrape does not queue behind
// ingest. The fleet's one shard is wedged inside a tenant's step, with
// more bins queued behind it, and TelemetrySummary still returns — with
// what the shard folded before the wedge — before the step is released.
func TestTelemetrySummaryIgnoresBusyShard(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var wedge atomic.Bool
	f := New(Config{Shards: 1, ObserveFailpoint: func(string, float64) {
		if wedge.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
	}})
	defer f.Close()
	defer close(release)
	if err := f.CreateTenant("a", sweepTenantConfig(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Observe("a", 2000); err != nil {
		t.Fatal(err)
	}
	before, err := f.TelemetrySummary()
	if err != nil || before.Levels[0].Decisions == 0 {
		t.Fatalf("summary after one bin: %v, %+v", err, before)
	}
	wedge.Store(true)
	observed := make(chan error, 2)
	for range 2 {
		go func() {
			_, err := f.Observe("a", 100)
			observed <- err
		}()
	}
	<-entered
	type reply struct {
		sum TelemetrySummary
		err error
	}
	read := make(chan reply, 1)
	go func() {
		sum, err := f.TelemetrySummary()
		read <- reply{sum, err}
	}()
	select {
	case r := <-read:
		if r.err != nil || r.sum != before {
			t.Errorf("summary read during the wedged step: %v, %+v; want the pre-wedge %+v", r.err, r.sum, before)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("TelemetrySummary waited on a busy shard")
	}
	release <- struct{}{}
	for range 2 {
		if err := <-observed; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSweepRaceAgainstLifecycle is the -race pin for the sweep: telemetry
// summaries, state listings, snapshots and journal appends run against
// batched ingest while tenants are created and closed under them. No sweep
// that starts after a CloseTenant returned may still see that tenant, and
// when the dust settles the fleet-wide fold equals that of a twin fleet
// fed the same bins one tenant at a time — closed tenants included.
func TestSweepRaceAgainstLifecycle(t *testing.T) {
	const (
		stable = 6 // tenants that live through the test
		churn  = 8 // tenants created, fed and closed while it runs
		rounds = 10
	)
	counts := func(i, r int) float64 { return float64(200 + 150*((i+r)%5)) }
	f := New(Config{Shards: 3})
	defer f.Close()
	j, err := OpenJournal(f, filepath.Join(t.TempDir(), "fleet.journal"), JournalConfig{MaxAppends: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < stable; i++ {
		if err := f.CreateTenant(fmt.Sprintf("s%d", i), sweepTenantConfig(int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	reader := func(read func() error) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := read(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	reader(func() error { _, err := f.TelemetrySummary(); return err })
	reader(func() error { f.States(); f.Stats(); return nil })
	reader(func() error { return f.Snapshot(new(bytes.Buffer)) })
	reader(j.Append)

	var writers sync.WaitGroup
	writers.Add(2)
	go func() { // batched ingest into the stable tenants
		defer writers.Done()
		for r := 0; r < rounds; r++ {
			entries := make([]BatchEntry, stable)
			for i := range entries {
				entries[i] = BatchEntry{Tenant: fmt.Sprintf("s%d", i), Counts: []float64{counts(i, r)}}
			}
			results, err := f.ObserveBatch(entries)
			if err != nil {
				t.Error(err)
				return
			}
			for _, res := range results {
				if res.Err != nil {
					t.Errorf("round %d, tenant %s: %v", r, res.Tenant, res.Err)
				}
			}
		}
	}()
	go func() { // tenants that come and go
		defer writers.Done()
		for i := 0; i < churn; i++ {
			id := fmt.Sprintf("c%d", i)
			if err := f.CreateTenant(id, sweepTenantConfig(int64(100+i))); err != nil {
				t.Error(err)
				return
			}
			for r := 0; r < 3; r++ {
				if _, err := f.Observe(id, counts(i, r)); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := f.CloseTenant(id); err != nil {
				t.Error(err)
				return
			}
			// Its close job has run: no later sweep may visit it.
			for _, st := range f.States() {
				if st.ID == id {
					t.Errorf("States lists %s after CloseTenant returned", id)
				}
			}
			sum, err := f.TelemetrySummary()
			if err != nil {
				t.Error(err)
				return
			}
			for _, e := range sum.Top.QoS {
				if e.ID == id {
					t.Errorf("TelemetrySummary ranks %s after CloseTenant returned", id)
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()

	twin := New(Config{Shards: 1})
	defer twin.Close()
	for i := 0; i < stable; i++ {
		id := fmt.Sprintf("s%d", i)
		if err := twin.CreateTenant(id, sweepTenantConfig(int64(i+1))); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			if _, err := twin.Observe(id, counts(i, r)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < churn; i++ {
		id := fmt.Sprintf("c%d", i)
		if err := twin.CreateTenant(id, sweepTenantConfig(int64(100+i))); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			if _, err := twin.Observe(id, counts(i, r)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := twin.CloseTenant(id); err != nil {
			t.Fatal(err)
		}
	}
	got, err := f.TelemetrySummary()
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.TelemetrySummary()
	if err != nil {
		t.Fatal(err)
	}
	// Decide latencies are wall clock; everything else is a function of the
	// bins fed.
	for _, sum := range []*TelemetrySummary{&got, &want} {
		for l := range sum.Levels {
			sum.Levels[l].DecideNs = 0
			sum.Levels[l].DecideBuckets = [len(decideBoundsNs)]uint64{}
		}
	}
	if got != want {
		t.Errorf("fold after the concurrent run:\n%+v\nsequential twin:\n%+v", got, want)
	}
	if got.Levels[0].Decisions == 0 || got.QoSViolations == 0 || got.Operational == 0 {
		t.Errorf("the run folded nothing to compare: %+v", got)
	}
	if n := f.Stats().Tenants; n != stable {
		t.Errorf("%d tenants registered after the run, want %d", n, stable)
	}
}

// TestRankingsStayExactAcrossCloses: the shards rank their tenants as the
// counters move instead of visiting them at scrape time, which is exact
// only while every ranked tenant stays. Closing ranked tenants out of full
// rankings — the one departure that makes room for a tenant nobody's
// counter will announce — must leave TelemetrySummary equal to a ranking
// rebuilt from every live tenant's counters, and the operational count
// equal to the sum over their last decisions.
func TestRankingsStayExactAcrossCloses(t *testing.T) {
	const tenants = 3 * TopK
	f := New(Config{Shards: 2})
	defer f.Close()
	for i := 0; i < tenants; i++ {
		id := fmt.Sprintf("t%02d", i)
		if err := f.CreateTenant(id, sweepTenantConfig(int64(i+1))); err != nil {
			t.Fatal(err)
		}
		// 1 + i%7 overloaded bins: distinct and tied violation counts.
		for b := 0; b <= i%7; b++ {
			if _, err := f.Observe(id, 2500); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(when string) TelemetrySummary {
		t.Helper()
		got, err := f.TelemetrySummary()
		if err != nil {
			t.Fatal(err)
		}
		var want TelemetryRankings
		operational := 0
		for _, st := range f.States() {
			tn, err := f.tenant(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			// The fleet is idle: the shards' counters are at rest.
			want.QoS.add(tn.id, tn.qos)
			want.Degraded.add(tn.id, tn.degraded)
			want.Stale.add(tn.id, tn.stale)
			operational += st.LastDecision.Operational
		}
		if got.Top != want {
			t.Fatalf("%s: rankings\n%v\nrebuilt from the tenants\n%v", when, got.Top, want)
		}
		if got.Operational != operational {
			t.Fatalf("%s: %d operational computers, tenants' last decisions sum to %d", when, got.Operational, operational)
		}
		return got
	}
	sum := check("before any close")
	if !sum.Top.QoS.full() {
		t.Fatalf("QoS ranking not full with %d violating tenants: %v", tenants, sum.Top.QoS)
	}
	// Close from the top of the ranking down until it can no longer fill.
	for closed := 0; closed < tenants-TopK/2; closed++ {
		id := sum.Top.QoS[0].ID
		if _, err := f.CloseTenant(id); err != nil {
			t.Fatal(err)
		}
		sum = check("after closing " + id)
	}
	if sum.Top.QoS.full() || sum.Top.QoS[0].Count == 0 {
		t.Fatalf("%d tenants left, ranking %v", TopK/2, sum.Top.QoS)
	}
}
