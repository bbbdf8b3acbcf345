package fleet

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"hierctl/internal/cluster"
	"hierctl/internal/core"
	"hierctl/internal/race"
	"hierctl/internal/workload"
)

// TestObserveBatchAllocsPerEntry: a batch call's allocations are bounded
// per call and per entry, not per bin or per decision. Deepening every
// entry from 1 bin to 33 — eight more L1 decisions each at this cadence —
// adds at most a constant: no per-bin decision payloads, harvest slices,
// request buffers or controller copy-outs. An ObserveBatch entry's fixed
// cost is the one decision it returns (Session.Decision's four allocations
// and its box). Through ObserveBatchInto with a warm dst and decisions off,
// the entry itself costs nothing: widening the call from 16 to 256 one-bin
// entries adds at most a constant too.
//
//hpm:pin mechanics
func TestObserveBatchAllocsPerEntry(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector; the request batch and queue blocks are pooled")
	}
	const tenants = 256
	f := New(Config{Shards: 2})
	defer f.Close()
	tc := TenantConfig{
		Spec:       cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2)}},
		Core:       fastCore(),
		Store:      testStoreConfig(),
		StoreSeed:  5,
		BinSeconds: 30,
	}
	tc.Core.Parallelism = 1
	tc.Core.RecordFrequencies = false
	ids := make([]string, tenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%d", i)
		if err := f.CreateTenant(ids[i], tc); err != nil {
			t.Fatal(err)
		}
	}
	series := []float64{300, 520, 12, 700, 150, 5, 480, 660, 30, 240, 680, 9}
	var dst []BatchResult
	// batch builds one call over the first width tenants; silent sends it
	// through ObserveBatchInto(dst[:0], decisions off)
	// (at a fiftieth of the load: that arm prices the entry, not the bin).
	batch := func(width, bins int, silent bool) func() {
		entries := make([]BatchEntry, width)
		for i := range entries {
			entries[i] = BatchEntry{Tenant: ids[i], Counts: make([]float64, bins)}
			for b := range entries[i].Counts {
				entries[i].Counts[b] = series[(b+i)%len(series)]
				if silent {
					entries[i].Counts[b] = float64(int(entries[i].Counts[b]) / 50)
				}
			}
		}
		return func() {
			var results []BatchResult
			var err error
			if silent {
				dst, err = f.ObserveBatchInto(dst[:0], entries, false)
				results = dst
			} else {
				results, err = f.ObserveBatch(entries)
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				if r.Err != nil || r.Applied != bins || (r.LastDecision == nil) != silent {
					t.Fatalf("entry %s: applied %d of %d, decision %v, err %v", r.Tenant, r.Applied, bins, r.LastDecision != nil, r.Err)
				}
			}
		}
	}
	const few = 4
	shallow, deep := batch(few, 1, false), batch(few, 33, false)
	for i := 0; i < 40; i++ { // past 1024 bins: the tenants' series regrow rarely, their logs add a chunk every 512
		deep()
	}
	perShallow := testing.AllocsPerRun(40, shallow)
	perDeep := testing.AllocsPerRun(40, deep)

	if extra := perDeep - perShallow; extra > few {
		t.Errorf("32 more bins per entry cost %v allocs per call, want <= %d: the batch allocates per bin or per decision", extra, few)
	}
	if perEntry := perShallow / few; perEntry > 6 {
		t.Errorf("a 1-bin entry costs %v allocs, want <= 6 (its returned decision)", perEntry)
	}

	narrow, wide := batch(16, 1, true), batch(tenants, 1, true)
	// Warm dst and the pooled cells at full width, and park every tenant
	// between two growths of its per-bin state (series double at 256 and
	// 512 bins, the observation log adds a chunk every 512; the first four
	// tenants are past 2560).
	for i := 0; i < 300; i++ {
		wide()
	}
	perNarrow := testing.AllocsPerRun(40, narrow)
	perWide := testing.AllocsPerRun(40, wide)
	if extra := perWide - perNarrow; extra > 8 {
		t.Errorf("%d more one-bin entries cost %v allocs per call, want <= 8: ObserveBatchInto allocates per entry or per decision",
			tenants-16, extra)
	}
	t.Logf("allocs per call: ObserveBatch 4x1 %v, 4x33 %v; ObserveBatchInto 16x1 %v, 256x1 %v", perShallow, perDeep, perNarrow, perWide)
	if perNarrow > 8 {
		t.Errorf("a warm 16-entry ObserveBatchInto call costs %v allocs, want <= 8", perNarrow)
	}
}

// liveHeap is HeapAlloc after a forced collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// footprintTenant creates the two-computer, 4096-record tenant of the
// footprint pins and returns a function stepping it n more bins.
func footprintTenant(t *testing.T, f *Fleet) func(n int) {
	t.Helper()
	tc := telemetryTenantConfig(4096) // hpmserve's default ring
	tc.Spec = cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2)}}
	if err := f.CreateTenant("t", tc); err != nil {
		t.Fatal(err)
	}
	bin := 0
	return func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			if _, err := f.Observe("t", float64(20+bin%17)); err != nil {
				t.Fatal(err)
			}
			bin++
		}
	}
}

// TestTenantFootprintFlatInUptime pins the fixed-size tenant: once warm
// (flight-recorder ring wrapped, plant queues and the store's locality
// history at their working size), a telemetry-on tenant without a journal
// retains nothing per bin — snapshots carry its checkpoint, so it keeps no
// log of its counts. Four times the warm-up's bins may grow the live heap
// (HeapAlloc after a forced collection) by 8 KB, for the rest of the test
// binary's heap not being perfectly still.
//
//hpm:pin mechanics
func TestTenantFootprintFlatInUptime(t *testing.T) {
	const warm, more = 2500, 10_000
	f := New(Config{Shards: 1})
	defer f.Close()
	run := footprintTenant(t, f)
	run(warm)
	before := liveHeap()
	run(more)
	after := liveHeap()
	grew := int64(after) - int64(before)
	if limit := int64(8 << 10); grew > limit {
		t.Fatalf("%d more bins grew the live heap by %d B (%.1f B/bin), want <= %d B of jitter",
			more, grew, float64(grew)/more, limit)
	}
	t.Logf("live heap grew %d B over %d bins (%.1f B/bin)", grew, more, float64(grew)/more)
}

// TestJournaledTenantFootprintFlatInUptime is the journal's twin of
// TestTenantFootprintFlatInUptime: a journaled tenant logs the counts its
// journal has not made durable, and each Append's sweep drops what the one
// before it made durable — so after an Append the log holds at most the
// bins since the Append before it, and the live heap stays flat in uptime.
//
//hpm:pin mechanics
func TestJournaledTenantFootprintFlatInUptime(t *testing.T) {
	const warm, more, interval = 2500, 10_000, 100
	f := New(Config{Shards: 1})
	defer f.Close()
	run := footprintTenant(t, f)
	j, err := OpenJournal(f, journalPath(t), JournalConfig{CompactFactor: 1e9, MaxAppends: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	tn, err := f.tenant("t")
	if err != nil {
		t.Fatal(err)
	}
	logged := func() (n int) {
		if err := f.exec(tn, func() { n = tn.observations.len() - tn.observations.from }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	appendEvery := func(bins int) {
		for ; bins > 0; bins -= interval {
			run(interval)
			if err := j.Append(); err != nil {
				t.Fatal(err)
			}
			if n := logged(); n > interval {
				t.Fatalf("after an Append the log holds %d counts, want <= the %d bins since the Append before", n, interval)
			}
		}
	}
	appendEvery(warm)
	before := liveHeap()
	appendEvery(more)
	after := liveHeap()
	grew := int64(after) - int64(before)
	if limit := int64(8 << 10); grew > limit {
		t.Fatalf("%d more journaled bins grew the live heap by %d B (%.1f B/bin), want <= %d B of jitter",
			more, grew, float64(grew)/more, limit)
	}
	t.Logf("live heap grew %d B over %d journaled bins (%.1f B/bin)", grew, more, float64(grew)/more)
}

// TestObsLogReleasesAfterLongInterval: a stalled append leaves a tenant's
// count log as long as the stall only until the Appends after it make the
// stall durable — after one interval 20 times the usual length and then two
// normal Appends, the tenant holds only the blocks a normal interval's
// counts span. A log in one growing array kept its peak size for the
// tenant's whole life.
//
//hpm:pin mechanics
func TestObsLogReleasesAfterLongInterval(t *testing.T) {
	const interval = 50
	f := New(Config{Shards: 1})
	defer f.Close()
	run := footprintTenant(t, f)
	j, err := OpenJournal(f, journalPath(t), JournalConfig{CompactFactor: 1e9, MaxAppends: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	tn, err := f.tenant("t")
	if err != nil {
		t.Fatal(err)
	}
	held := func() (blocks int) {
		if err := f.exec(tn, func() {
			for b := tn.observations.first; b != nil; b = b.next {
				blocks++
			}
		}); err != nil {
			t.Fatal(err)
		}
		return blocks
	}
	appendAfter := func(bins int) int {
		run(bins)
		if err := j.Append(); err != nil {
			t.Fatal(err)
		}
		return held()
	}
	// Right after an Append the log holds the interval before it, which
	// spans at most this many blocks.
	normal := (interval+logBlockCounts-1)/logBlockCounts + 1
	for i := 0; i < 4; i++ {
		if got := appendAfter(interval); got > normal {
			t.Fatalf("normal interval %d: the log holds %d blocks, want <= %d", i, got, normal)
		}
	}
	stalled := appendAfter(20 * interval)
	if stalled <= normal {
		t.Fatalf("after a stalled interval of %d bins the log holds %d blocks, want more than %d", 20*interval, stalled, normal)
	}
	appendAfter(interval)
	if got := appendAfter(interval); got > normal {
		t.Fatalf("two normal Appends after the stall the log holds %d blocks (%d at the stall), want <= %d", got, stalled, normal)
	}
}

// TestTenantFootprintAtRest pins what a tenant costs before its first bin,
// where it is decided: the two-computer tenant hpmserve creates by default
// (4096-record ring, the paper's 10,000-object store) is its flight
// recorder, its store's locality ring and its manager, session, plant and
// feed — held to the measured value + 5 %. The controllers' decision
// tables are not in it: they live in the scratch of the shard that steps
// the tenant.
func TestTenantFootprintAtRest(t *testing.T) {
	const tenants = 256
	f := New(Config{Shards: 1})
	defer f.Close()
	tc := telemetryTenantConfig(4096)
	tc.Spec = cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2)}}
	tc.Store = workload.DefaultStoreConfig()
	// The first tenant learns the maps the rest share; it is not counted.
	if err := f.CreateTenant("first", tc); err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	for i := 0; i < tenants; i++ {
		tc.StoreSeed = int64(i)
		if err := f.CreateTenant(fmt.Sprintf("t%d", i), tc); err != nil {
			t.Fatal(err)
		}
	}
	per := (liveHeap() - before) / tenants
	if per > 54_142 {
		t.Fatalf("a default tenant at rest holds %d B of live heap, want <= 54,142", per)
	}
	t.Logf("a default tenant at rest holds %d B of live heap", per)
}

// TestClusterTenantFootprint is TestTenantFootprintAtRest's twin for the
// four-module × 4 tenant (the cmd/hpmperf cluster-l2 shape: L2 active,
// hpmserve's 4096-record ring, the paper's store), measured after 40 bins
// of 60-140 arrivals, so that every level has decided and any decision
// memory a tenant kept — the L1s' tables and probe memo, the L0s' search
// buffers, the L2's tables — would show: they belong in the stepping
// shard's scratch. Held to the measured value + 5 %.
func TestClusterTenantFootprint(t *testing.T) {
	const tenants, bins = 32, 40
	f := New(Config{Shards: 1})
	defer f.Close()
	tc := telemetryTenantConfig(4096)
	tc.Spec = cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 4), moduleOf("M2", 4), moduleOf("M3", 4), moduleOf("M4", 4)}}
	tc.Store = workload.DefaultStoreConfig()
	// The first tenant learns the maps and trees the rest share and grows
	// the shard's scratch; it is not counted.
	ids := make([]string, tenants+1)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%d", i)
	}
	step := func(ids []string) {
		t.Helper()
		for b := range bins {
			for i, id := range ids {
				if _, err := f.Observe(id, float64(60+(7*b+13*i)%81)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := f.CreateTenant(ids[0], tc); err != nil {
		t.Fatal(err)
	}
	step(ids[:1])
	before := liveHeap()
	for i, id := range ids[1:] {
		tc.StoreSeed = int64(i)
		if err := f.CreateTenant(id, tc); err != nil {
			t.Fatal(err)
		}
	}
	step(ids[1:])
	per := (liveHeap() - before) / tenants
	if per > 72_245 {
		t.Fatalf("a four-module tenant after %d bins holds %d B of live heap, want <= 72,245", bins, per)
	}
	t.Logf("a four-module tenant after %d bins holds %d B of live heap", bins, per)
}

// TestJournalAppendAllocsPerFrame pins what a steady Append costs per delta
// frame: gob boxing the frame's counts on the log's warm stream, 24 B on
// linux/amd64 — the frame, its copied counts and its tenant's share of the
// sweep all live in the journal's own scratch — held to
// appendBytesPerFrame, 60 % above it. The median of eight Appends is held:
// the count blocks an Append's sweep drops go back to a sync.Pool, whose
// per-P chains grow now and again (up to ≈ 20 B a frame in one Append of 32
// frames) — the pool's housekeeping, not a frame's cost. It is flat in the
// frames per Append and in the counts per frame.
//
//hpm:pin mechanics
func TestJournalAppendAllocsPerFrame(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector instruments allocations")
	}
	const appendBytesPerFrame = 38
	// perFrame Appends rounds of one delta frame of counts bins per tenant
	// of an n-tenant fleet and reports the median Append's bytes a frame.
	perFrame := func(n, counts int) float64 {
		f := New(Config{Shards: 2})
		defer f.Close()
		entries := make([]BatchEntry, n)
		for i := range entries {
			id := fmt.Sprintf("t%03d", i)
			if err := f.CreateTenant(id, batchTenantConfig(int64(i+1))); err != nil {
				t.Fatal(err)
			}
			entries[i] = BatchEntry{Tenant: id, Counts: make([]float64, counts)}
			for b := range entries[i].Counts {
				entries[i].Counts[b] = float64(1 + (i+b)%7)
			}
		}
		j, err := OpenJournal(f, journalPath(t), JournalConfig{CompactFactor: 1e9, MaxAppends: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		var dst []BatchResult
		const rounds = 8
		var bytes []float64
		for r := 0; r <= rounds; r++ {
			if dst, err = f.ObserveBatchInto(dst[:0], entries, false); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := j.Append(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if r > 0 { // the first round grows the writer's buffer and the scratch
				bytes = append(bytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(n))
			}
		}
		slices.Sort(bytes)
		return (bytes[rounds/2-1] + bytes[rounds/2]) / 2
	}
	for _, n := range []int{32, 256} {
		one, many := perFrame(n, 1), perFrame(n, 64)
		t.Logf("an Append of %d delta frames: %.1f B a frame of 1 count, %.1f B of 64", n, one, many)
		if max(one, many) > appendBytesPerFrame {
			t.Errorf("an Append of %d delta frames allocates %.1f B a frame of 1 count, %.1f B of 64, want <= %d", n, one, many, appendBytesPerFrame)
		}
		if many-one > 64 {
			t.Errorf("an Append of %d delta frames allocates %.1f B more a frame of 64 counts than of 1: it copies the counts", n, many-one)
		}
	}
}

// TestJournaledStepZeroAlloc: a journaled tenant's count log takes its
// blocks from the pool its journal's Appends return them to, so once warm
// a tenant stepping across Appends allocates nothing per bin — each
// interval, three blocks long, borrows the blocks the Append before it
// dropped. An interval's every bin is measured, in one AllocsPerRun run
// (which also steps one unmeasured interval first).
//
//hpm:pin mechanics
func TestJournaledStepZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	f := New(Config{Shards: 1})
	defer f.Close()
	if err := f.CreateTenant("a", batchTenantConfig(3)); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(f, journalPath(t), JournalConfig{CompactFactor: 1e9, MaxAppends: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	const interval = 2*logBlockCounts + 9
	var dst core.BinDecision
	bin := 0
	step := func() {
		for i := 0; i < interval; i++ {
			if err := f.ObserveInto("a", float64(12+9*(bin%5)), &dst); err != nil {
				t.Fatal(err)
			}
			bin++
		}
	}
	for range 4 { // as below: two intervals between Appends
		step()
		step()
		if err := j.Append(); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 8; round++ {
		if allocs := testing.AllocsPerRun(1, step); allocs != 0 {
			t.Fatalf("round %d: %d journaled bins allocate %v, want 0", round, interval, allocs)
		}
		if err := j.Append(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalCompactReusesCapture: a compaction captures every checkpoint
// into the journal's buffer for the tenant's shard, reused from the
// compaction before, not into a copy per tenant. A second compaction of an
// unchanged 64-tenant fleet writes its checkpoints into the same arrays
// and allocates less than a fifth of their bytes: ≈ 16 % measured on
// linux/amd64 (15.7 KB against 98.8 KB), nearly all of it gob's — boxing
// the configuration's slices, ≈ 130 B a frame, and the new stream's
// encoder and type descriptors — and the temp file's. A copy per tenant
// allocated the checkpoints' bytes again, and more.
//
//hpm:pin mechanics
func TestJournalCompactReusesCapture(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector instruments allocations")
	}
	const tenants = 64
	f := New(Config{Shards: 2})
	defer f.Close()
	entries := make([]BatchEntry, tenants)
	for i := range entries {
		id := fmt.Sprintf("t%03d", i)
		if err := f.CreateTenant(id, batchTenantConfig(int64(i+1))); err != nil {
			t.Fatal(err)
		}
		entries[i] = BatchEntry{Tenant: id, Counts: []float64{100, 200, 300}}
	}
	if _, err := f.ObserveBatch(entries); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(f, journalPath(t), JournalConfig{CompactFactor: 1e9, MaxAppends: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	arrays := func() (ptrs []*byte, n int) {
		for _, b := range j.capture.bufs {
			ptrs = append(ptrs, unsafe.SliceData(b))
			n += len(b)
		}
		return ptrs, n
	}
	first, ckpt := arrays()
	base := j.Stats().BaseBytes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	second, ckpt2 := arrays()
	if ckpt2 != ckpt || j.Stats().BaseBytes != base || !slices.Equal(first, second) {
		t.Fatalf("an unchanged fleet recompacted to %d B of checkpoints in %d B of base (was %d in %d), arrays reused %v",
			ckpt2, j.Stats().BaseBytes, ckpt, base, slices.Equal(first, second))
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("the second compaction allocated %d B for %d B of checkpoints (%.1f %%)", alloc, ckpt, 100*float64(alloc)/float64(ckpt))
	if alloc*5 >= uint64(ckpt) {
		t.Errorf("the second compaction of %d unchanged tenants allocated %d B, want < a fifth of its %d B of checkpoints", tenants, alloc, ckpt)
	}
}

// TestFleetTenantIDInterned: TenantID names a registered tenant by the
// fleet's own id string, with no copy of the bytes it was asked about and
// no allocation, and stops naming it once the tenant is closed.
//
//hpm:pin mechanics
func TestFleetTenantIDInterned(t *testing.T) {
	f := New(Config{Shards: 1})
	defer f.Close()
	tc := TenantConfig{
		Spec:       cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2)}},
		Core:       fastCore(),
		Store:      testStoreConfig(),
		StoreSeed:  5,
		BinSeconds: 30,
	}
	own := fmt.Sprintf("tenant-%d", 7)
	if err := f.CreateTenant(own, tc); err != nil {
		t.Fatal(err)
	}
	wire := []byte("tenant-7")
	id, ok := f.TenantID(wire)
	if !ok || id != own {
		t.Fatalf("TenantID(%q) = %q, %v; want %q, true", wire, id, ok, own)
	}
	if unsafe.StringData(id) != unsafe.StringData(own) {
		t.Errorf("TenantID returned a copy of the id, not the fleet's own string")
	}
	if _, ok := f.TenantID([]byte("tenant-8")); ok {
		t.Errorf("TenantID named an unregistered tenant")
	}
	if allocs := testing.AllocsPerRun(100, func() { id, ok = f.TenantID(wire) }); allocs != 0 {
		t.Errorf("TenantID allocates %v per call, want 0", allocs)
	}
	if _, err := f.CloseTenant(own); err != nil {
		t.Fatal(err)
	}
	if id, ok := f.TenantID(wire); ok {
		t.Errorf("TenantID(%q) = %q, true after CloseTenant", wire, id)
	}
}
