package hierctl

// Pins for the decision-tick benchmark harness behind BENCH_tick.json:
// the rows exist, the deterministic columns hold their steady-state
// values (zero allocations for L0 and the table probe, the returned
// decision's two slices for L1/L2), and bad inputs error.

import "testing"

func TestRunTickBenchValidation(t *testing.T) {
	if _, err := RunTickBench(0, 4); err == nil {
		t.Error("0 decisions: want error")
	}
	if _, err := RunTickBench(4, 0); err == nil {
		t.Error("0 tenants: want error")
	}
}

func TestRunTickBenchRowsAndInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("tick bench learns abstraction maps")
	}
	snap, err := RunTickBench(48, 4)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Decisions != 48 || snap.Tenants != 4 {
		t.Fatalf("snapshot config %d/%d, want 48/4", snap.Decisions, snap.Tenants)
	}
	rows := map[string]TickBenchRow{}
	for _, r := range snap.Rows {
		rows[r.Level] = r
	}
	for _, level := range []string{"L0-decide", "L1-decide", "L2-decide", "table-probe", "bin-scale", "bin-depth", "fleet-4"} {
		if _, ok := rows[level]; !ok {
			t.Fatalf("missing row %q (have %v)", level, snap.Rows)
		}
	}
	// The allocation-free invariants the PR pins: L0 decides and table
	// probes allocate nothing; L1/L2 allocate only the returned
	// decision's slices.
	for level, wantAllocs := range map[string]float64{
		"L0-decide": 0, "table-probe": 0, "L1-decide": 2, "L2-decide": 2,
	} {
		r := rows[level]
		if r.AllocsPerDecision != wantAllocs {
			t.Errorf("%s: %v allocs/decision, want %v", level, r.AllocsPerDecision, wantAllocs)
		}
		if r.NsPerDecision <= 0 || r.Decisions <= 0 {
			t.Errorf("%s: implausible row %+v", level, r)
		}
	}
	// A whole observation bin, under the varying count series: the
	// returned decision (Modules plus four slices) and a fraction of an L1
	// copy-out — and no bytes that scale with the bin's request count.
	for _, level := range []string{"bin-scale", "bin-depth"} {
		r := rows[level]
		if r.AllocsPerDecision < 5 || r.AllocsPerDecision > 6 || r.BytesPerDecision > 512 {
			t.Errorf("%s: %v allocs / %v B per bin, want 5-6 allocs and <= 512 B", level, r.AllocsPerDecision, r.BytesPerDecision)
		}
	}
	fleet := rows["fleet-4"]
	if fleet.TenantTicksPerSec <= 0 {
		t.Errorf("fleet row missing throughput: %+v", fleet)
	}
	if fleet.AllocsPerDecision != -1 || fleet.BytesPerDecision != -1 {
		t.Errorf("fleet row should exclude byte/alloc columns, got %+v", fleet)
	}
}
