package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hierctl"
)

func TestRunLLCModule(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-scale", "0.02", "-fast"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"hierarchical-llc", "mean response", "energy", "states per L1"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunBaselinePolicies(t *testing.T) {
	for _, pol := range []string{"threshold", "threshold-dvfs", "always-on"} {
		var out bytes.Buffer
		if err := run([]string{"-policy", pol, "-scale", "0.02"}, &out); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if !strings.Contains(out.String(), "completed") {
			t.Errorf("%s output missing summary:\n%s", pol, out.String())
		}
	}
}

func TestRunWC98Cluster(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-cluster", "2", "-workload", "wc98", "-scale", "0.03", "-fast"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "computers         8") {
		t.Errorf("cluster size not reported:\n%s", out.String())
	}
}

func TestRunScaledModule(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-module-size", "6", "-scale", "0.02", "-fast"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "computers         6") {
		t.Errorf("module size not reported:\n%s", out.String())
	}
}

// TestRunL3Farm smokes the cross-cluster mode: two clusters under one
// shared clock with the proportional-share layer splitting the budget.
func TestRunL3Farm(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-l3", "2", "-scale", "0.05"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"proportional-share", "cluster-1", "cluster-2", "reallocations"} {
		if !strings.Contains(s, want) {
			t.Errorf("l3 output missing %q:\n%s", want, s)
		}
	}
}

// TestRunL3Deterministic pins the shared-clock merge at the CLI level:
// the same flags produce byte-identical reports.
func TestRunL3Deterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"-l3", "2", "-scale", "0.05"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-l3", "2", "-scale", "0.05"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("l3 runs diverge:\n%s\n---\n%s", a.String(), b.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-policy", "nope"},
		{"-workload", "nope"},
		{"-badflag"},
		{"-l3", "1"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("args %v: want error", args)
		}
	}
}

// TestRunUnknownWorkloadListsScenarios pins the bugfix contract: an
// unknown -workload value must error with the registered scenario list.
func TestRunUnknownWorkloadListsScenarios(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-workload", "nope"}, &out)
	if err == nil {
		t.Fatal("unknown workload: want error")
	}
	for _, frag := range []string{`"nope"`, "registered:", "flashcrowd", "synthetic"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q missing %q", err, frag)
		}
	}
}

// TestRunScenarioWorkloads smokes the new scenarios end to end through
// the CLI under both the LLC hierarchy and a baseline policy.
func TestRunScenarioWorkloads(t *testing.T) {
	for _, name := range []string{"flashcrowd", "heavytail", "sawtooth"} {
		var out bytes.Buffer
		if err := run([]string{"-workload", name, "-scale", "0.05", "-fast"}, &out); err != nil {
			t.Fatalf("llc under %s: %v", name, err)
		}
		if !strings.Contains(out.String(), "hierarchical-llc") {
			t.Errorf("%s output missing policy line:\n%s", name, out.String())
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-workload", "failstorm", "-policy", "threshold", "-scale", "0.05"}, &out); err != nil {
		t.Fatalf("threshold under failstorm: %v", err)
	}
	if !strings.Contains(out.String(), "completed") {
		t.Errorf("failstorm baseline output missing summary:\n%s", out.String())
	}
}

// TestRunTracefileWorkload replays an hpmgen-emitted CSV through the
// simulator via the tracefile scenario.
func TestRunTracefileWorkload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "day.csv")
	trace, err := hierctl.StepTrace(32, 30, 150, 900, 8)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out bytes.Buffer
	if err := run([]string{"-workload", "tracefile:" + path, "-fast"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "hierarchical-llc") {
		t.Errorf("tracefile run missing summary:\n%s", out.String())
	}
}

// TestRunTraceExport drives the flight-recorder path end to end: a
// recorded LLC run must emit a valid Chrome trace_event file and a JSONL
// stream covering every hierarchy level, without changing the summary.
func TestRunTraceExport(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "decisions.json")
	jsonlPath := filepath.Join(dir, "decisions.jsonl")
	var out bytes.Buffer
	// Two modules so the L2 arbiter is in the loop (single-module clusters
	// have no L2 controller and would leave the level uncovered).
	err := run([]string{"-cluster", "2", "-scale", "0.02", "-fast", "-trace", tracePath, "-trace-jsonl", jsonlPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "hierarchical-llc") {
		t.Errorf("recorded run lost its summary:\n%s", out.String())
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("trace file is not valid trace_event JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" || len(tf.TraceEvents) == 0 {
		t.Fatalf("trace shape wrong: unit %q, %d events", tf.DisplayTimeUnit, len(tf.TraceEvents))
	}
	phases := map[string]int{}
	for _, ev := range tf.TraceEvents {
		phases[ev.Ph]++
	}
	for _, ph := range []string{"M", "X", "C"} {
		if phases[ph] == 0 {
			t.Errorf("trace has no %q events (%v)", ph, phases)
		}
	}

	jf, err := os.Open(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	levels := map[string]int{}
	lines := 0
	sc := bufio.NewScanner(jf)
	for sc.Scan() {
		lines++
		var rec struct {
			Level string `json:"level"`
			Tick  int64  `json:"tick"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not a JSON record: %v", lines, err)
		}
		levels[rec.Level]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, lv := range []string{"tick", "l0", "l1", "l2"} {
		if levels[lv] == 0 {
			t.Errorf("JSONL stream has no %q records (%d lines: %v)", lv, lines, levels)
		}
	}
}

// TestRunTraceRequiresLLC pins the flag contract: decision tracing only
// instruments the LLC hierarchy.
func TestRunTraceRequiresLLC(t *testing.T) {
	for _, args := range [][]string{
		{"-policy", "threshold", "-trace", "out.json"},
		{"-l3", "2", "-trace-jsonl", "out.jsonl"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), "llc") {
			t.Errorf("args %v: got %v, want an llc-only error", args, err)
		}
	}
}

// TestRunProfiles checks the pprof flags produce non-empty profile files.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out bytes.Buffer
	if err := run([]string{"-scale", "0.02", "-fast", "-cpuprofile", cpu, "-memprofile", mem}, &out); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}
