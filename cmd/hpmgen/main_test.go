package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hierctl"
)

func TestRunSyntheticToStdout(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-profile", "synthetic"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if want := hierctl.DefaultSyntheticConfig().Bins + 1; len(lines) != want { // header + bins
		t.Errorf("got %d lines, want %d", len(lines), want)
	}
	if lines[0] != "time_s,value" {
		t.Errorf("header = %q", lines[0])
	}
}

// TestRunStepProfile: the step profile is the registered scenario — 480
// bins of 150/3600 — in the CSV and in -inspect alike.
func TestRunStepProfile(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-profile", "step"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 481 || !strings.Contains(out.String(), ",3600\n") {
		t.Errorf("step emitted %d lines (want 481) or no high value", len(lines))
	}
	out.Reset()
	if err := run([]string{"-profile", "step", "-inspect"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "bins          480 x 30 s") {
		t.Errorf("step inspect:\n%s", out.String())
	}
}

// TestRunEmitsRegistryTraces: for every scenario that takes no argument,
// hpmgen's CSV is the registered scenario's trace — the one hpmsim,
// hpmbench and hpmserve run — at the same seed.
func TestRunEmitsRegistryTraces(t *testing.T) {
	for _, sc := range hierctl.Scenarios() {
		if sc.NeedsArg {
			continue
		}
		trace, err := sc.Trace(7)
		if err != nil {
			t.Fatal(err)
		}
		var want, got bytes.Buffer
		if err := trace.WriteCSV(&want); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"-profile", sc.Name, "-seed", "7"}, &got); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if !strings.HasPrefix(got.String(), "time_s,value\n") {
			t.Errorf("%s: CSV header missing", sc.Name)
		}
		if got.String() != want.String() {
			t.Errorf("%s: hpmgen emitted %d bytes that differ from the registry trace's %d", sc.Name, got.Len(), want.Len())
		}
	}
}

func TestRunWC98ToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wc.csv")
	var out bytes.Buffer
	if err := run([]string{"-profile", "wc98", "-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "time_s,value") {
		t.Error("file missing header")
	}
	if out.Len() != 0 {
		t.Error("stdout should be empty when -out is used")
	}
}

func TestRunUnknownProfile(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-profile", "nope"}, &out); err == nil {
		t.Error("unknown profile: want error")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-nonsense"}, &out); err == nil {
		t.Error("bad flag: want error")
	}
}

func TestRunListScenarios(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"synthetic", "wc98", "flashcrowd", "diurnal-noisy", "heavytail", "failstorm", "sawtooth", "tracefile:<path>"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

func TestRunScenarioProfile(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-profile", "flashcrowd", "-seed", "7"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 100 {
		t.Errorf("flashcrowd emitted %d lines", len(lines))
	}
}

func TestRunInspect(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-profile", "failstorm", "-inspect"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"scenario      failstorm", "failure plan", "fail", "repair", "per bin"} {
		if !strings.Contains(s, frag) {
			t.Errorf("-inspect output missing %q:\n%s", frag, s)
		}
	}
	out.Reset()
	if err := run([]string{"-profile", "heavytail", "-inspect"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Pareto tail") {
		t.Errorf("heavytail inspect missing service mix:\n%s", out.String())
	}
}

// TestEmitReplayRoundTrip pins the tracefile contract end to end at the
// CLI: a trace emitted by hpmgen, replayed via the tracefile scenario,
// re-emitted, is byte-identical.
func TestEmitReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "day.csv")
	var first bytes.Buffer
	if err := run([]string{"-profile", "synthetic", "-out", path}, &first); err != nil {
		t.Fatal(err)
	}
	var replay bytes.Buffer
	if err := run([]string{"-profile", "tracefile:" + path}, &replay); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if replay.String() != string(orig) {
		t.Error("replayed CSV differs from the emitted trace")
	}
}

func TestUnknownProfileListsScenarios(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-profile", "nope"}, &out)
	if err == nil || !strings.Contains(err.Error(), "registered:") || !strings.Contains(err.Error(), "flashcrowd") {
		t.Errorf("unknown profile error %v should list registered scenarios", err)
	}
}
