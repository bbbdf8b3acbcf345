package hierctl

import (
	"strings"
	"testing"
)

func TestRunFleetBenchRejectsBadInputs(t *testing.T) {
	cases := []struct {
		name   string
		bins   int
		scales []int
		frag   string
	}{
		{"zero bins", 0, []int{4}, "bin"},
		{"no scales", 2, nil, "scale"},
		{"zero scale", 2, []int{4, 0}, "scale 0"},
	}
	for _, tc := range cases {
		_, err := RunFleetBench(tc.bins, tc.scales)
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: got %v, want error mentioning %q", tc.name, err, tc.frag)
		}
	}
}

// TestRunFleetBenchSmall runs the full generation at toy scales and pins
// its invariants: one row per scale and the long-history row, constant
// aggregate load, and both equivalence checks passing — the same checks
// whose failure in a CI regeneration flags a batched-ingest or snapshot
// regression.
func TestRunFleetBenchSmall(t *testing.T) {
	snap, err := RunFleetBench(2, []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Rows) != 3 {
		t.Fatalf("got %d rows, want the two scale rows and the history row", len(snap.Rows))
	}
	if snap.ComputersPerTenant != 2 {
		t.Errorf("computersPerTenant = %d, want 2", snap.ComputersPerTenant)
	}
	if snap.AggregateCountPerRound != fleetBenchAggregate {
		t.Errorf("aggregate = %v, want %v", snap.AggregateCountPerRound, float64(fleetBenchAggregate))
	}
	for i, n := range []int{4, 8} {
		row := snap.Rows[i]
		if row.Tenants != n || row.Bins != 2 {
			t.Errorf("row %d: tenants %d bins %d, want %d and 2", i, row.Tenants, row.Bins, n)
		}
		if got, want := row.CountPerBin, fleetBenchAggregate/float64(n); got != want {
			t.Errorf("row %d: countPerBin %v, want %v", i, got, want)
		}
		if row.TenantTicksPerSec <= 0 || row.NsPerTick <= 0 {
			t.Errorf("row %d: non-positive throughput %v / %v", i, row.TenantTicksPerSec, row.NsPerTick)
		}
		if row.AllocBytesPerBin <= 0 || row.AllocsPerBin <= 0 {
			t.Errorf("row %d: alloc columns %v B / %v per bin", i, row.AllocBytesPerBin, row.AllocsPerBin)
		}
		if row.SnapshotBytes <= 0 {
			t.Errorf("row %d: snapshot bytes %d", i, row.SnapshotBytes)
		}
		if row.ScrapeMicros <= 0 || row.ScrapeAllocBytes <= 0 {
			t.Errorf("row %d: scrape columns %v us / %v B", i, row.ScrapeMicros, row.ScrapeAllocBytes)
		}
	}
	// A telemetry scrape is one job per shard: it allocates the same
	// whatever the fleet hosts.
	if a, b := snap.Rows[0].ScrapeAllocBytes, snap.Rows[1].ScrapeAllocBytes; a != b {
		t.Errorf("scrape allocates %v B with %d tenants, %v B with %d", a, snap.Rows[0].Tenants, b, snap.Rows[1].Tenants)
	}
	if !snap.Checks.BatchEqualsSequential {
		t.Error("batched ingest diverged from sequential Observe calls")
	}
	if !snap.Checks.RestoreEqualsReplay {
		t.Error("restored fleet diverged from the original on the next bin")
	}
}

// TestFleetBenchSnapshotGrowsWithTenants: at the same per-tenant load, a
// larger fleet snapshots larger. (Across the scale rows the aggregate load
// is held instead, and a checkpoint's size follows each tenant's queued
// and remembered requests, so fewer, busier tenants can snapshot larger.)
func TestFleetBenchSnapshotGrowsWithTenants(t *testing.T) {
	var bytes [2]int64
	for i, n := range []int{4, 8} {
		row, _, _, err := runFleetBenchScale(n, 2, 100, false)
		if err != nil {
			t.Fatal(err)
		}
		bytes[i] = row.SnapshotBytes
	}
	if bytes[1] <= bytes[0] {
		t.Errorf("snapshot bytes did not grow with the fleet: %d at 4 tenants, %d at 8", bytes[0], bytes[1])
	}
}

// TestRunFleetBenchHistoryRow: the long-history row re-runs the first
// scale's tenants for fleetBenchHistory times the rounds, after the scale
// rows, under the same restore check.
func TestRunFleetBenchHistoryRow(t *testing.T) {
	snap, err := RunFleetBench(1, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Rows) != 2 {
		t.Fatalf("got %d rows, want the scale row and the history row", len(snap.Rows))
	}
	if row := snap.Rows[1]; row.Tenants != 4 || row.Bins != fleetBenchHistory || row.CountPerBin != snap.Rows[0].CountPerBin {
		t.Errorf("history row %+v, want 4 tenants at %d bins and the scale row's load", row, fleetBenchHistory)
	}
	if !snap.Checks.RestoreEqualsReplay {
		t.Error("restored fleet diverged from the original on the next bin")
	}
}
