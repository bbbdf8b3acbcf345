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
// per call and per entry, not per bin. Deepening every entry from 1 bin
// to 33 may add only what the controllers' own decision copy-outs cost
// (two slices per L1 decision, every fourth bin at this cadence) — no
// per-bin decision payloads, harvest slices or request buffers — and an
// ObserveBatch entry's fixed cost (the one decision it returns) stays
// small. Through ObserveBatchInto with a warm dst and decisions off, the
// entry itself costs nothing: widening the call from 16 to 256 one-bin
// entries adds only those tenants' L1 copy-outs.
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

	// 32 extra bins per entry hold 8 L1 decisions of 2 slices each.
	l1CopyOuts := float64(few * 32 / 4 * 2)
	if extra := perDeep - perShallow; extra > l1CopyOuts+few {
		t.Errorf("32 more bins per entry cost %v allocs per call, want <= %v (the L1 decision copy-outs): the batch allocates per bin",
			extra, l1CopyOuts+few)
	}
	if perEntry := perShallow / few; perEntry > 20 {
		t.Errorf("a 1-bin entry costs %v allocs, want <= 20", perEntry)
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
	// One L1 decision (2 slices) per tenant every fourth call.
	widerCopyOuts := float64((tenants - 16) * 2 / 4)
	if extra := perWide - perNarrow; extra > widerCopyOuts+8 {
		t.Errorf("%d more one-bin entries cost %v allocs per call, want <= %v (their L1 decision copy-outs): ObserveBatchInto allocates per entry",
			tenants-16, extra, widerCopyOuts+8)
	}
	t.Logf("allocs per call: ObserveBatch 4x1 %v, 4x33 %v; ObserveBatchInto 16x1 %v, 256x1 %v", perShallow, perDeep, perNarrow, perWide)
	if perNarrow > 16*2/4+8 {
		t.Errorf("a warm 16-entry ObserveBatchInto call costs %v allocs, want <= %d", perNarrow, 16*2/4+8)
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

// TestTenantFootprintFlatInUptime pins the property behind the fixed-size
// tenant: once warm (flight-recorder ring wrapped, plant queues and the
// store's locality history at their working size), the only thing a
// telemetry-on tenant retains per bin is its observation-log entry — the
// replay log restores need, 8 bytes. Four times the warm-up's bins may
// grow the live heap (HeapAlloc after a forced collection) by 8 B/bin plus
// one chunk of the log — the one being filled is allocated whole — and 8 KB
// for the rest of the test binary's heap not being perfectly still: the
// chunked log re-copies nothing and keeps no headroom beyond that chunk. A
// session that kept per-bin series (mean response, operational count,
// prediction pairs, the observed trace) grew ~40 B/bin here.
func TestTenantFootprintFlatInUptime(t *testing.T) {
	const warm, more = 2500, 10_000
	f := New(Config{Shards: 1})
	defer f.Close()
	tc := telemetryTenantConfig(4096) // hpmserve's default ring
	tc.Spec = cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2)}}
	if err := f.CreateTenant("t", tc); err != nil {
		t.Fatal(err)
	}
	bin := 0
	run := func(n int) {
		for ; n > 0; n-- {
			if _, err := f.Observe("t", float64(20+bin%17)); err != nil {
				t.Fatal(err)
			}
			bin++
		}
	}
	run(warm)
	before := liveHeap()
	run(more)
	after := liveHeap()
	grew := int64(after) - int64(before)
	if limit := int64(more*8 + obsChunk*8 + 8<<10); grew > limit {
		t.Fatalf("%d more bins grew the live heap by %d B (%.1f B/bin), want <= %d B: 8 B/bin of observation log plus one chunk and jitter",
			more, grew, float64(grew)/more, limit)
	}
	t.Logf("live heap grew %d B over %d bins (%.1f B/bin)", grew, more, float64(grew)/more)
}

// TestTenantFootprintAtRest pins what a tenant costs before its first bin,
// where it is decided: the two-computer tenant hpmserve creates by default
// (4096-record ring, the paper's 10,000-object store) is its flight
// recorder (68,620 B: a 65,536 B arena of 16 B per record on average and
// 3,084 B of seek anchors, one per 16 records), its store's locality
// history (18,432 B) and some 11.2 KB of manager, session, plant and feed
// — 98,229 B measured, held to that + 5 %. The recorder's arena at 24 B a
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
	if per > 103_140 {
		t.Fatalf("a default tenant at rest holds %d B of live heap, want <= 103,140", per)
	}
	t.Logf("a default tenant at rest holds %d B of live heap", per)
}
