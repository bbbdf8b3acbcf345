package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hierctl"
)

func TestRunFig3(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig. 3") {
		t.Errorf("missing header:\n%s", out.String())
	}
}

func TestRunFig4And5ShareExperiment(t *testing.T) {
	for _, fig := range []string{"4", "5"} {
		var out bytes.Buffer
		if err := run([]string{"-fig", fig, "-scale", "0.02", "-fast"}, &out); err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
		if !strings.Contains(out.String(), "Fig. "+fig) {
			t.Errorf("fig %s missing header:\n%s", fig, out.String())
		}
	}
}

func TestRunFig6And7(t *testing.T) {
	for _, fig := range []string{"6", "7"} {
		var out bytes.Buffer
		if err := run([]string{"-fig", fig, "-scale", "0.02", "-fast"}, &out); err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
		if !strings.Contains(out.String(), "Fig. "+fig) {
			t.Errorf("fig %s missing header:\n%s", fig, out.String())
		}
	}
}

func TestRunEnergyTable(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-table", "energy", "-scale", "0.02", "-fast"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"hierarchical-llc", "always-on", "threshold", "profit"} {
		if !strings.Contains(s, want) {
			t.Errorf("energy table missing %q:\n%s", want, s)
		}
	}
}

func TestRunScalabilityTable(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-table", "scalability", "-scale", "0.02", "-fast"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "hierarchical") || !strings.Contains(s, "centralized") {
		t.Errorf("scalability table incomplete:\n%s", s)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                           // nothing to do
		{"-fig", "99"},               // unknown figure
		{"-table", "nope"},           // unknown table
		{"-fig", "4", "-scale", "7"}, // bad scale
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("args %v: want error", args)
		}
	}
}

// TestRunRejectsConflictingModes pins the mode validation: exactly one of
// -fig/-table/-all/-snapshot per invocation, unknown tables and snapshots
// rejected with the valid list, and flags rejected where they do not
// apply — in particular every workload flag a snapshot's registry entry
// does not name, with one message (none is silently ignored).
func TestRunRejectsConflictingModes(t *testing.T) {
	conflicts := [][]string{
		{"-fig", "3", "-table", "energy"},
		{"-fig", "3", "-all"},
		{"-table", "energy", "-snapshot", "llc"},
		{"-all", "-snapshot", "tick"},
		{"-fig", "3", "-snapshot", "fleet"},
	}
	for _, args := range conflicts {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), "exactly one of") {
			t.Errorf("args %v: got %v, want a conflicting-modes usage error", args, err)
		}
	}
	var out bytes.Buffer
	// Unknown names list the registry of valid ones; the snapshot-writing
	// matrices are snapshots, no longer tables.
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-table", "nope"}, "valid tables"},
		{[]string{"-table", "scenarios"}, "valid tables"},
		{[]string{"-snapshot", "nope"}, "valid snapshots: llc, tick, fleet, scenarios, chaos"},
		{[]string{"-fig", "3", "-out", "x.json"}, "-out only applies to -snapshot"},
		{nil, "-snapshot"}, // the nothing-to-do error lists the modes
	} {
		if err := run(c.args, &out); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("args %v: got %v, want an error mentioning %q", c.args, err, c.want)
		}
	}
	// Each snapshot runs at a fixed configuration: every workload flag
	// outside its registry entry is refused before any work starts.
	honours := map[string][]string{
		"llc":       nil,
		"tick":      nil,
		"fleet":     nil,
		"scenarios": {"seed", "parallelism"},
		"chaos":     {"seed", "parallelism"},
	}
	values := map[string]string{"scale": "0.5", "seed": "7", "fast": "true", "parallelism": "4"}
	for _, b := range snapshots {
		for _, name := range workloadFlags {
			if slices.Contains(honours[b.name], name) != slices.Contains(b.honours, name) {
				t.Errorf("snapshot %s: registry and test disagree on whether -%s applies", b.name, name)
			}
			if slices.Contains(b.honours, name) {
				continue
			}
			args := []string{"-snapshot", b.name, "-out", filepath.Join(t.TempDir(), "x.json"), "-" + name + "=" + values[name]}
			err := run(args, &out)
			if err == nil || !strings.Contains(err.Error(), "-"+name+" does not apply to -snapshot "+b.name) {
				t.Errorf("args %v: got %v, want the does-not-apply usage error", args, err)
			}
		}
	}
}

// TestSnapshotRegistryMatchesCommittedFiles pins the registry against the
// repo root: every entry's committed BENCH file exists and carries each
// column CI projects it onto.
func TestSnapshotRegistryMatchesCommittedFiles(t *testing.T) {
	for _, b := range snapshots {
		data, err := os.ReadFile(filepath.Join("..", "..", b.file()))
		if err != nil {
			t.Errorf("snapshot %s: %v", b.name, err)
			continue
		}
		for _, col := range b.columns {
			if !bytes.Contains(data, []byte(`"`+col+`"`)) {
				t.Errorf("snapshot %s: committed %s has no %q column", b.name, b.file(), col)
			}
		}
	}
}

// TestValidTablesMatchRunTable pins the table registry against runTable's
// switch: every name validateModes accepts must reach a real runner (the
// probe uses an invalid scale so each runner fails fast on validation,
// never on "unknown table").
func TestValidTablesMatchRunTable(t *testing.T) {
	for _, name := range allTables {
		var out bytes.Buffer
		err := runTable(&out, name, hierctl.ExperimentOptions{Scale: -1})
		if err == nil || strings.Contains(err.Error(), "unknown table") {
			t.Errorf("table %q: got %v; registry and runTable switch have drifted", name, err)
		}
	}
}

// TestRunTickBenchSnapshot smokes -snapshot tick: rows for every level, the
// deterministic alloc columns at their pinned steady-state values, and a
// regeneration that agrees on them.
func TestRunTickBenchSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_tick.json")
	var out bytes.Buffer
	if err := run([]string{"-snapshot", "tick", "-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Decision tick", "L0-decide", "L1-decide", "L2-decide", "table-probe", "bin-scale", "bin-depth", "fleet-64", "tenant-ticks/sec", "snapshot written", "deterministic columns: allocsPerDecision bytesPerDecision"} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("output missing %q:\n%s", frag, out.String())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Rows []struct {
			Level             string  `json:"level"`
			AllocsPerDecision float64 `json:"allocsPerDecision"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	// bin-*: the returned decision (Modules + four slices) and, on the
	// §4.3-module tenant's 120 s L1 cadence, half an L1 copy-out per bin.
	want := map[string]float64{"L0-decide": 0, "L1-decide": 2, "L2-decide": 2, "table-probe": 0, "bin-scale": 5, "bin-depth": 6, "fleet-64": -1}
	for _, r := range snap.Rows {
		if w, ok := want[r.Level]; !ok || r.AllocsPerDecision != w {
			t.Errorf("row %s: %v allocs/decision, want %v", r.Level, r.AllocsPerDecision, want[r.Level])
		}
		delete(want, r.Level)
	}
	for level := range want {
		t.Errorf("missing row %s", level)
	}
}

func TestRunRejectsNegativeParallelism(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-fig", "3", "-parallelism", "-1"}, &out)
	if err == nil || !strings.Contains(err.Error(), "parallelism") {
		t.Errorf("negative -parallelism: got %v, want a clear error", err)
	}
}

// TestRunScenariosTable smokes the robustness matrix snapshot: it must
// print one row per (scenario, policy) cell and write a snapshot that
// regenerates bit-identically at -parallelism 1.
func TestRunScenariosTable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_scenarios.json")
	var out bytes.Buffer
	if err := run([]string{"-snapshot", "scenarios", "-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Robustness matrix", "flashcrowd", "failstorm", "hierarchical-llc", "threshold", "centralized", "snapshot written"} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("output missing %q:\n%s", frag, out.String())
		}
	}
	if strings.Contains(out.String(), "deterministic columns") {
		t.Error("the matrix has no wall-clock fields, yet a column projection was printed")
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-snapshot", "scenarios", "-out", path, "-parallelism", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Error("snapshot differs between default and -parallelism 1 regenerations")
	}
}
