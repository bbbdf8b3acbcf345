package hierctl

// Pins for the decision-tick benchmark harness behind BENCH_tick.json:
// the rows exist and are measured, and bad inputs error. What the B and
// allocs columns hold is pinned where each path lives (the search and
// mechanics pin groups) and diffed against the committed file by CI.

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
	for _, level := range []string{"L0-decide", "L1-decide", "L2-decide", "table-probe", "bin-scale", "bin-depth"} {
		if r := rows[level]; r.NsPerDecision <= 0 || r.Decisions <= 0 || r.AllocsPerDecision < 0 || r.BytesPerDecision < 0 {
			t.Errorf("%s: implausible row %+v", level, r)
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
