package fleet

import (
	"fmt"
	"runtime"
	"testing"

	"hierctl/internal/cluster"
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
// binary's heap not being perfectly still. The replay log a snapshot once
// needed grew 8 B/bin here; a session that kept per-bin series ~40 B/bin.
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
		if err := f.exec(tn, func() { n = len(tn.observations.counts) }); err != nil {
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

// TestTenantFootprintAtRest pins what a tenant costs before its first bin,
// where it is decided: the two-computer tenant hpmserve creates by default
// (4096-record ring, the paper's 10,000-object store) is its flight
// recorder (68,620 B: a 65,536 B arena of 16 B per record on average and
// 3,084 B of seek anchors, one per 16 records), its store's locality
// history (18,432 B) and some 11.3 KB of manager, session, plant and feed
// — 98,385 B measured, held to that + 5 %. The recorder's arena at 24 B a
// record and one offset per record held 114,688 B.
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
	if per > 103_304 {
		t.Fatalf("a default tenant at rest holds %d B of live heap, want <= 103,304", per)
	}
	t.Logf("a default tenant at rest holds %d B of live heap", per)
}

// TestJournalAppendAllocsPerFrame pins what a steady Append costs per delta
// frame: the encoder's message on the log's warm stream (≈ 24 B), the
// frame (80 B) and its tenant's share of the sweep (a listing slot, a
// result, an error and a visited flag, ≈ 95 B) — ≈ 200 B on linux/amd64,
// held to appendBytesPerFrame, 60 % above it. It is flat in the frames per
// Append and in the counts per frame: a fresh encoder per frame re-sent
// ≈ 3 KB of descriptors, and a copied delta cost 8 B a count (504 B more a
// frame at 64 counts than at 1).
func TestJournalAppendAllocsPerFrame(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector instruments allocations")
	}
	const appendBytesPerFrame = 320
	// perFrame Appends rounds of one delta frame of counts bins per tenant
	// of an n-tenant fleet and reports the Appends' bytes a frame.
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
		var bytes uint64
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
			if r > 0 { // the first round grows the writer's buffer
				bytes += after.TotalAlloc - before.TotalAlloc
			}
		}
		return float64(bytes) / float64(rounds*n)
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
