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
// from its start, a log of several blocks that reads back what was added,
// views that later adds — opening new blocks — leave as they were, and a
// drop that returns to the pool exactly the blocks wholly before it.
func TestObsLog(t *testing.T) {
	blocks := func(l *obsLog) (bs []*logBlock) {
		for b := l.first; b != nil; b = b.next {
			bs = append(bs, b)
		}
		return bs
	}
	var l obsLog
	if l.len() != 0 || l.tail(0).appendTo(nil) != nil {
		t.Fatalf("empty log: len %d, tail %v", l.len(), l.tail(0).appendTo(nil))
	}
	l.restart(100)
	const n = 1031
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(3 * i)
		l.add(want[i], 0)
	}
	if l.len() != 100+n {
		t.Fatalf("len = %d, want %d", l.len(), 100+n)
	}
	if got, wantBlocks := len(blocks(&l)), (n+logBlockCounts-1)/logBlockCounts; got != wantBlocks || blocks(&l)[got-1] != l.last {
		t.Fatalf("%d counts in %d blocks, want %d ending at last", n, got, wantBlocks)
	}
	for _, from := range []int{100, 101, 100 + logBlockCounts - 1, 100 + logBlockCounts, 611, 100 + n - 1} {
		if got := l.tail(from).appendTo(nil); !reflect.DeepEqual(got, want[from-100:]) {
			t.Errorf("tail(%d): %d entries, want %d starting %v", from, len(got), n-from+100, want[from-100])
		}
	}
	if got := l.tail(100 + n); got.n != 0 || got.appendTo(nil) != nil {
		t.Errorf("tail(len) = %+v, want empty", got)
	}

	// Views survive adds that open new blocks: one inside a block, and one
	// that ends on a full block, whose link the next add writes.
	var v obsLog
	v.add(1, 0)
	v.add(2, 0)
	short := v.tail(0)
	for i := 2; i < logBlockCounts; i++ {
		v.add(float64(i+1), 0)
	}
	full := v.tail(1)
	for range 3 * logBlockCounts {
		v.add(-1, 0)
	}
	if got := short.appendTo(nil); !reflect.DeepEqual(got, []float64{1, 2}) {
		t.Errorf("adds rewrote a view tail handed out: %v", got)
	}
	if got := full.appendTo(nil); len(got) != logBlockCounts-1 || got[0] != 2 || got[len(got)-1] != logBlockCounts {
		t.Errorf("a view ending on a full block reads %d counts %v..%v, want %d counts 2..%d", len(got), got[0], got[len(got)-1], logBlockCounts-1, logBlockCounts)
	}

	// Bins 100.. fill blocks of logBlockCounts: upto inside the fourth
	// block drops the three before it and keeps the rest linked.
	before := blocks(&l)
	upto := 100 + 3*logBlockCounts + 5
	l.drop(upto)
	after := blocks(&l)
	if len(after) != len(before)-3 || after[0] != before[3] || l.last != before[len(before)-1] {
		t.Fatalf("drop(%d) kept %d of %d blocks, want all but the 3 wholly before it", upto, len(after), len(before))
	}
	for i, b := range before[:3] {
		if b.next != nil {
			t.Errorf("dropped block %d still links on: not returned to the pool", i)
		}
	}
	if got := l.tail(upto).appendTo(nil); !reflect.DeepEqual(got, want[upto-100:]) || l.len() != 100+n {
		t.Fatalf("after drop(%d): len %d, tail %d entries", upto, l.len(), len(got))
	}
	l.drop(upto - 50) // before the start: nothing to drop
	if l.from != upto || len(blocks(&l)) != len(after) {
		t.Errorf("drop below the start moved it to %d, %d blocks", l.from, len(blocks(&l)))
	}
	l.drop(5000) // past the end: an empty log from there, its blocks returned
	if l.len() != 5000 || l.tail(5000).n != 0 || l.first != nil {
		t.Errorf("drop past the end: len %d, tail %+v, %d blocks", l.len(), l.tail(5000), len(blocks(&l)))
	}
	for i, b := range after {
		if b.next != nil {
			t.Errorf("block %d of a restarted log still links on: not returned to the pool", i)
		}
	}
}

// TestObsLogReusesDurableBlocks: a full log reuses its first block for
// the next count once that block lies wholly before the durable bin —
// not a block that still holds a count past it — and the counts after
// the durable bin read back unchanged.
func TestObsLogReusesDurableBlocks(t *testing.T) {
	var l obsLog
	l.restart(10)
	want := make([]float64, 0, 4*logBlockCounts)
	for i := 0; i < 3*logBlockCounts; i++ {
		want = append(want, float64(i))
		l.add(want[i], 10+logBlockCounts-1) // the first block holds bin 10+logBlockCounts-1 past it
	}
	first, second := l.first, l.first.next
	durable := 10 + logBlockCounts
	for i := 3 * logBlockCounts; i < 4*logBlockCounts; i++ {
		want = append(want, float64(i))
		l.add(want[i], durable)
	}
	if l.last != first || l.first != second || l.base != durable || l.from != durable {
		t.Fatalf("log did not reuse its first block: last reused %v, base %d, from %d, want %d", l.last == first, l.base, l.from, durable)
	}
	if got := l.tail(durable).appendTo(nil); !reflect.DeepEqual(got, want[logBlockCounts:]) {
		t.Fatalf("tail past the durable bin: %d counts, want %d", len(got), len(want)-logBlockCounts)
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
// behind a metrics scrape: a warm Stats allocates nothing and reads what
// the first read did, whether the fleet hosts 16 tenants or 512 — each
// shard's counters are summed under its lock, nothing per tenant. A fresh
// fleet opened after a closed one counts nothing.
//
//hpm:pin mechanics
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
		want := f.Stats()
		if got := want.Levels[0].Decisions; got < uint64(2*tenants) || want.Operational < tenants || want.Top.QoS[TopK-1].Count == 0 {
			t.Fatalf("%d tenants: %d L0 decisions, %d operational, ranking %v", tenants, got, want.Operational, want.Top.QoS)
		}
		var got Stats
		if allocs := testing.AllocsPerRun(50, func() { got = f.Stats() }); allocs != 0 {
			t.Errorf("Stats allocates %v times with %d tenants, want 0", allocs, tenants)
		}
		if got != want {
			t.Fatalf("%d tenants: warm read %+v, first read %+v", tenants, got, want)
		}
		f.Close()
	}
	g := New(Config{Shards: 2})
	defer g.Close()
	if st := g.Stats(); st != (Stats{Shards: 2}) {
		t.Fatalf("read of an empty fleet after a closed one: %+v", st)
	}
}

// TestTelemetrySummaryIgnoresBusyShard: a scrape does not queue behind
// ingest. The fleet's one shard is wedged inside a tenant's step, with
// more bins queued behind it, and Stats still returns — with what the
// shard counted for the steps before the wedge — before the step is
// released.
//
//hpm:pin scrape
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
	before := f.Stats()
	if before.Levels[0].Decisions == 0 || before.Observations != 1 {
		t.Fatalf("stats after one bin: %+v", before)
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
	read := make(chan Stats, 1)
	go func() { read <- f.Stats() }()
	select {
	case st := <-read:
		if st != before {
			t.Errorf("stats read during the wedged step: %+v; want the pre-wedge %+v", st, before)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Stats waited on a busy shard")
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
// when the dust settles the fleet-wide telemetry equals that of a twin
// fleet fed the same bins one tenant at a time — closed tenants included.
// The race it looks for: a telemetry read takes each shard's totals under
// the shard's lock, from outside the shard, while the shard counts into
// them as bins step and swaps in ranking rebuilds as tenants close.
//
//hpm:pin scrape
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
	reader(func() error { f.Stats(); return nil })
	reader(func() error { f.States(); return nil })
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
			for _, e := range f.Stats().Top.QoS {
				if e.ID == id {
					t.Errorf("Stats ranks %s after CloseTenant returned", id)
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
	got, want := f.Stats(), twin.Stats()
	if got.Tenants != stable {
		t.Errorf("%d tenants registered after the run, want %d", got.Tenants, stable)
	}
	// Stepping time and decide latencies are wall clock, and only the
	// concurrent fleet has three shards and took snapshots; everything
	// else is a function of the bins fed.
	for _, st := range []*Stats{&got, &want} {
		st.Shards, st.Snapshots, st.DecideSeconds = 0, 0, 0
		for l := range st.Levels {
			st.Levels[l].DecideNs = 0
			clear(st.Levels[l].DecideBuckets[:])
		}
	}
	if got != want {
		t.Errorf("counters after the concurrent run:\n%+v\nsequential twin:\n%+v", got, want)
	}
	if got.Levels[0].Decisions == 0 || got.QoSViolations == 0 || got.Operational == 0 || got.Observations == 0 {
		t.Errorf("the run counted nothing to compare: %+v", got)
	}
}

// TestRankingsStayExactAcrossCloses: the shards rank their tenants as the
// counters move instead of visiting them at scrape time, which is exact
// only while every ranked tenant stays. Closing ranked tenants out of full
// rankings — the one departure that makes room for a tenant nobody's
// counter will announce — must leave the rankings Stats reports equal to
// ones rebuilt from every live tenant's counters, and the operational
// count equal to the sum over their last decisions.
//
//hpm:pin scrape
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
	check := func(when string) Stats {
		t.Helper()
		got := f.Stats()
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
