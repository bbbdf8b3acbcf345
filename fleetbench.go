package hierctl

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	"hierctl/internal/cluster"
	"hierctl/internal/fleet"
)

// fleetScaleTenantConfig is the fleet benchmark's per-tenant shape: a
// 10k-tenant node hosts many small, lightly loaded hierarchies, not ten
// thousand copies of the §4.3 benchmark module. Each tenant manages a
// 2-computer module under a greedy (horizon-1) L0, a coarse learning
// grid, and the paper's multi-rate cadence stretched to T_L1 = 480 s —
// the observe→decide loop this leaves is what has to be cheap for fleet
// scale (the tick bench's fleet-64 row keeps the heavier §4.3 module as
// the per-tenant depth benchmark; this one measures breadth).
func fleetScaleTenantConfig(seed int64) (fleet.TenantConfig, error) {
	module, err := cluster.ScaledModule("M1", "M1", 2)
	if err != nil {
		return fleet.TenantConfig{}, err
	}
	return benchTenantShape(seed, module, 100, 1, 480, 960), nil
}

// FleetBenchRow is one scale point of the fleet benchmark: n tenants
// ingesting `bins` bins each through ObserveBatch, followed by a full
// snapshot and a streaming restore of the fleet.
//
// TenantTicksPerSec, NsPerTick, CreateSeconds and the latency columns
// are wall-clock and vary run to run, and the two alloc columns move with
// the collector's timing (pooled call state is dropped at a GC); Tenants,
// Bins, CountPerBin and SnapshotBytes are deterministic and form the
// projection CI diffs across regenerations (snapshot bytes are
// reproducible because the snapshot encoder sorts every map — see
// TestSnapshotBytesDeterministic — and the tenant configuration embeds no
// host path).
type FleetBenchRow struct {
	Tenants int `json:"tenants"`
	// Bins is the number of observation bins ingested per tenant in the
	// measured window (one batched round per bin).
	Bins int `json:"bins"`
	// CountPerBin is the arrivals per tenant bin. The benchmark holds the
	// aggregate offered load constant across scales — many small tenants
	// instead of few big ones — so the scale rows measure fleet capacity,
	// not shrinking simulation work per row.
	CountPerBin       float64 `json:"countPerBin"`
	TenantTicksPerSec float64 `json:"tenantTicksPerSec"`
	NsPerTick         float64 `json:"nsPerTick"`
	// AllocBytesPerBin and AllocsPerBin are the process's heap allocation
	// (runtime.MemStats delta) over the measured ingest rounds, per tenant
	// bin: the step plus the fleet's fan-out. The rounds go through
	// ObserveBatchInto with a reused result slice and decisions off — the
	// daemon's default path — except at the scale whose decisions the
	// BatchEqualsSequential check reads, where every entry's decision is
	// built and kept.
	AllocBytesPerBin float64 `json:"allocBytesPerBin"`
	AllocsPerBin     float64 `json:"allocsPerBin"`
	// ScrapeMicros and ScrapeAllocBytes price what a /metrics scrape asks
	// of the fleet — one Fleet.TelemetrySummary, on the idle fleet after
	// the ingest rounds, median of fleetBenchScrapes: each shard's fold
	// read under its lock, no shard queue joined and nothing per tenant,
	// so the bytes are zero at every scale (the time is informational,
	// wall-clock).
	ScrapeMicros     float64 `json:"scrapeMicros"`
	ScrapeAllocBytes float64 `json:"scrapeAllocBytes"`
	// CreateSeconds is the wall-clock cost of standing up all n tenants
	// (the first tenant learns, the rest share its artifacts).
	CreateSeconds  float64 `json:"createSeconds"`
	SnapshotMillis float64 `json:"snapshotMillis"`
	RestoreMillis  float64 `json:"restoreMillis"`
	SnapshotBytes  int64   `json:"snapshotBytes"`
}

// FleetBenchChecks are the correctness pins the generation verifies on
// every run: false in a committed snapshot (or a CI regeneration) means
// the batched ingest or the snapshot subsystem broke equivalence.
type FleetBenchChecks struct {
	// BatchEqualsSequential: a fleet fed through ObserveBatch produced
	// bit-identical decisions to a twin fed the same bins one Observe at
	// a time (verified at the smallest scale).
	BatchEqualsSequential bool `json:"batchEqualsSequential"`
	// RestoreEqualsUninterrupted: at every scale, a fleet restored from
	// the snapshot produced bit-identical next-bin decisions to the
	// uninterrupted original.
	RestoreEqualsUninterrupted bool `json:"restoreEqualsUninterrupted"`
}

// FleetBenchSnapshot is the BENCH_fleet.json payload.
type FleetBenchSnapshot struct {
	// AggregateCountPerRound is the constant total arrivals per batched
	// round shared by every scale row (tenants × countPerBin).
	AggregateCountPerRound float64 `json:"aggregateCountPerRound"`
	// ComputersPerTenant records the scale-tenant shape (see
	// fleetScaleTenantConfig) so the rows are read against the right
	// per-tenant cluster size.
	ComputersPerTenant int              `json:"computersPerTenant"`
	Rows               []FleetBenchRow  `json:"rows"`
	Checks             FleetBenchChecks `json:"checks"`
}

// fleetBenchAggregate is the constant offered load per round: 64
// tenants at 100 arrivals per bin, redistributed across more, smaller
// tenants as the scale grows. Holding the aggregate constant keeps the
// rows comparable — what a scale row measures is the per-tenant
// control-loop overhead (observe, decide, snapshot bookkeeping), not
// shrinking request-synthesis work per row.
const fleetBenchAggregate = 64 * 100

// fleetBenchHistory is how many times longer than a scale row the
// long-history row runs: 4096 rounds at the canonical 16.
const fleetBenchHistory = 256

// RunFleetBench measures fleet capacity at the given tenant scales:
// batched ingest throughput (tenant-ticks/sec), tenant creation cost,
// and snapshot/restore latency, holding the aggregate offered load per
// round constant across scales. The generation doubles as an
// equivalence check (see FleetBenchChecks); bins sets the measured
// rounds per scale. A last row, the long-history row, runs the first
// scale's tenants again for fleetBenchHistory × bins rounds: a checkpoint
// keeps their snapshot and restore near the short row's cost.
func RunFleetBench(bins int, scales []int) (FleetBenchSnapshot, error) {
	if bins < 1 {
		return FleetBenchSnapshot{}, fmt.Errorf("hierctl: fleet bench needs >= 1 bin, got %d", bins)
	}
	if len(scales) == 0 {
		return FleetBenchSnapshot{}, fmt.Errorf("hierctl: fleet bench needs >= 1 tenant scale")
	}
	for _, n := range scales {
		if n < 1 {
			return FleetBenchSnapshot{}, fmt.Errorf("hierctl: fleet bench scale %d < 1", n)
		}
	}
	snap := FleetBenchSnapshot{
		AggregateCountPerRound: fleetBenchAggregate,
		ComputersPerTenant:     2,
		Checks:                 FleetBenchChecks{BatchEqualsSequential: true, RestoreEqualsUninterrupted: true},
	}
	for si, n := range scales {
		row, restoreOK, batchOK, err := runFleetBenchScale(n, bins, fleetBenchAggregate/float64(n), si == 0)
		if err != nil {
			return FleetBenchSnapshot{}, err
		}
		snap.Rows = append(snap.Rows, row)
		snap.Checks.RestoreEqualsUninterrupted = snap.Checks.RestoreEqualsUninterrupted && restoreOK
		if si == 0 {
			snap.Checks.BatchEqualsSequential = batchOK
		}
	}
	n := scales[0]
	row, restoreOK, _, err := runFleetBenchScale(n, fleetBenchHistory*bins, fleetBenchAggregate/float64(n), false)
	if err != nil {
		return FleetBenchSnapshot{}, err
	}
	snap.Rows = append(snap.Rows, row)
	snap.Checks.RestoreEqualsUninterrupted = snap.Checks.RestoreEqualsUninterrupted && restoreOK
	return snap, nil
}

// newBenchFleet stands up n bench tenants on a fleet whose shard queues
// are sized to accept one whole-fleet batch.
func newBenchFleet(n int) (*fleet.Fleet, []string, error) {
	f := fleet.New(fleet.Config{QueueDepth: n})
	ids := make([]string, n)
	for i := range ids {
		tc, err := fleetScaleTenantConfig(int64(i + 1))
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		ids[i] = fmt.Sprintf("t%05d", i)
		if err := f.CreateTenant(ids[i], tc); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return f, ids, nil
}

// observeRound pushes one bin of count arrivals to every tenant in a
// single ObserveBatchInto call over dst[:0] and returns the per-entry
// results (with decisions when asked for).
func observeRound(f *fleet.Fleet, dst []fleet.BatchResult, entries []fleet.BatchEntry, decisions bool) ([]fleet.BatchResult, error) {
	results, err := f.ObserveBatchInto(dst[:0], entries, decisions)
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("hierctl: fleet bench tenant %s: %w", res.Tenant, res.Err)
		}
	}
	return results, nil
}

// fleetBenchScrapes is how many telemetry sweeps a scale row's scrape
// columns are the median of.
const fleetBenchScrapes = 9

// measureScrape times fleetBenchScrapes TelemetrySummary reads, as the
// daemon's scrape makes them, and returns the median microseconds and
// allocated bytes.
func measureScrape(f *fleet.Fleet) (micros, allocBytes float64, err error) {
	took := make([]float64, fleetBenchScrapes)
	allocated := make([]float64, fleetBenchScrapes)
	var before, after runtime.MemStats
	for i := range took {
		runtime.ReadMemStats(&before)
		start := time.Now()
		if _, err := f.TelemetrySummary(); err != nil {
			return 0, 0, err
		}
		took[i] = float64(time.Since(start).Nanoseconds()) / 1e3
		runtime.ReadMemStats(&after)
		allocated[i] = float64(after.TotalAlloc - before.TotalAlloc)
	}
	sort.Float64s(took)
	sort.Float64s(allocated)
	return took[len(took)/2], allocated[len(allocated)/2], nil
}

func runFleetBenchScale(n, bins int, count float64, verifySequential bool) (FleetBenchRow, bool, bool, error) {
	createStart := time.Now()
	f, ids, err := newBenchFleet(n)
	if err != nil {
		return FleetBenchRow{}, false, false, err
	}
	defer f.Close()
	createSeconds := time.Since(createStart).Seconds()

	entries := make([]fleet.BatchEntry, n)
	for i := range entries {
		entries[i] = fleet.BatchEntry{Tenant: ids[i], Counts: []float64{count}}
	}
	// Batched decisions are built, and their rounds retained, only when the
	// sequential twin will need them for the equivalence check; otherwise
	// every round reuses one result slice.
	var rounds [][]fleet.BatchResult
	var results []fleet.BatchResult
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for r := 0; r < bins; r++ {
		if verifySequential {
			results = nil
		}
		if results, err = observeRound(f, results, entries, verifySequential); err != nil {
			return FleetBenchRow{}, false, false, err
		}
		if verifySequential {
			rounds = append(rounds, results)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	ticks := n * bins

	batchOK := true
	if verifySequential {
		g, gids, err := newBenchFleet(n)
		if err != nil {
			return FleetBenchRow{}, false, false, err
		}
		for r := 0; r < bins && batchOK; r++ {
			for i := range gids {
				dec, err := g.Observe(gids[i], count)
				if err != nil {
					g.Close()
					return FleetBenchRow{}, false, false, err
				}
				batched := rounds[r][i].LastDecision
				if batched == nil || !reflect.DeepEqual(*batched, dec) {
					batchOK = false
					break
				}
			}
		}
		g.Close()
	}

	scrapeMicros, scrapeAllocBytes, err := measureScrape(f)
	if err != nil {
		return FleetBenchRow{}, false, false, err
	}

	var buf bytes.Buffer
	snapStart := time.Now()
	if err := f.Snapshot(&buf); err != nil {
		return FleetBenchRow{}, false, false, err
	}
	snapshotMillis := float64(time.Since(snapStart).Nanoseconds()) / 1e6

	restored := fleet.New(fleet.Config{QueueDepth: n})
	defer restored.Close()
	restoreStart := time.Now()
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		return FleetBenchRow{}, false, false, err
	}
	restoreMillis := float64(time.Since(restoreStart).Nanoseconds()) / 1e6

	// The restored fleet must continue exactly where the original left
	// off: one more bin on both, decisions bit-identical.
	restoreOK := true
	orig, err := observeRound(f, nil, entries, true)
	if err != nil {
		return FleetBenchRow{}, false, false, err
	}
	rest, err := observeRound(restored, nil, entries, true)
	if err != nil {
		return FleetBenchRow{}, false, false, err
	}
	for i := range orig {
		a, b := orig[i].LastDecision, rest[i].LastDecision
		if a == nil || b == nil || !reflect.DeepEqual(*a, *b) {
			restoreOK = false
			break
		}
	}

	return FleetBenchRow{
		Tenants:           n,
		Bins:              bins,
		CountPerBin:       count,
		TenantTicksPerSec: float64(ticks) / elapsed.Seconds(),
		NsPerTick:         float64(elapsed.Nanoseconds()) / float64(ticks),
		AllocBytesPerBin:  float64(after.TotalAlloc-before.TotalAlloc) / float64(ticks),
		AllocsPerBin:      float64(after.Mallocs-before.Mallocs) / float64(ticks),
		ScrapeMicros:      scrapeMicros,
		ScrapeAllocBytes:  scrapeAllocBytes,
		CreateSeconds:     createSeconds,
		SnapshotMillis:    snapshotMillis,
		RestoreMillis:     restoreMillis,
		SnapshotBytes:     int64(buf.Len()),
	}, restoreOK, batchOK, nil
}
