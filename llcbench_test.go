package hierctl

import (
	"encoding/json"
	"os"
	"testing"
)

// TestRunLLCBenchExploredDeterministic pins what lets CI gate BENCH_llc.json
// byte-exact on its explored columns: one search runs on one goroutine, so
// two generations agree on Explored row for row, and both agree with the
// committed file, whose pruned row explores at most 0.4 of the naive tree.
func TestRunLLCBenchExploredDeterministic(t *testing.T) {
	if _, err := RunLLCBench(0); err == nil {
		t.Error("0 decisions: want error")
	}
	data, err := os.ReadFile("BENCH_llc.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed LLCBenchSnapshot
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	perComputer := committed.Decisions / len(committed.Computers)
	a, err := RunLLCBench(perComputer)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLLCBench(perComputer)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != len(committed.Rows) || len(b.Rows) != len(committed.Rows) {
		t.Fatalf("rows: %d and %d generated, %d committed", len(a.Rows), len(b.Rows), len(committed.Rows))
	}
	for i, want := range committed.Rows {
		// The L0 search's completion bound and constant-path incumbents
		// hold it to at most 0.4 of the naive tree.
		if want.Engine == "pruned" && want.ExploredVsNaive > 0.4 {
			t.Errorf("committed pruned row explores %v of naive, want <= 0.4", want.ExploredVsNaive)
		}
		for _, got := range []LLCBenchRow{a.Rows[i], b.Rows[i]} {
			if got.Engine != want.Engine || got.Explored != want.Explored || got.ExploredVsNaive != want.ExploredVsNaive {
				t.Errorf("row %d: generated %s explored %d (%v of naive), committed %s %d (%v)",
					i, got.Engine, got.Explored, got.ExploredVsNaive, want.Engine, want.Explored, want.ExploredVsNaive)
			}
		}
	}
}
