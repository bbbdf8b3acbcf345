package workload

import (
	"hierctl/internal/des"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestScenarioRegistryContents(t *testing.T) {
	want := []string{"synthetic", "wc98", "step", "flashcrowd", "diurnal-noisy", "heavytail", "failstorm", "sawtooth", "tracefile"}
	have := map[string]bool{}
	for _, s := range Scenarios() {
		have[s.Name] = true
		if s.Description == "" {
			t.Errorf("scenario %q has no description", s.Name)
		}
	}
	for _, n := range want {
		if !have[n] {
			t.Errorf("scenario %q not registered", n)
		}
	}
	if len(have) < len(want) {
		t.Errorf("registry has %d scenarios, want >= %d", len(have), len(want))
	}
}

func TestLookupScenarioUnknownListsNames(t *testing.T) {
	_, err := LookupScenario("nope")
	if err == nil {
		t.Fatal("want error for unknown scenario")
	}
	for _, frag := range []string{`"nope"`, "flashcrowd", "synthetic", "tracefile:<path>"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %q", err, frag)
		}
	}
}

func TestLookupScenarioArgHandling(t *testing.T) {
	if _, err := LookupScenario("tracefile"); err == nil || !strings.Contains(err.Error(), "tracefile:<path>") {
		t.Errorf("bare tracefile lookup: got %v, want arg hint", err)
	}
	if _, err := LookupScenario("synthetic:extra"); err == nil || !strings.Contains(err.Error(), "takes no argument") {
		t.Errorf("argument on plain scenario: got %v, want rejection", err)
	}
}

func TestRegisterScenarioRejectsBadNames(t *testing.T) {
	for _, s := range []Scenario{
		{Name: "", Trace: syntheticScenarioTrace},
		{Name: "has:colon", Trace: syntheticScenarioTrace},
		{Name: "has space", Trace: syntheticScenarioTrace},
		{Name: "notrace"},
		{Name: "synthetic", Trace: syntheticScenarioTrace}, // duplicate
	} {
		if err := RegisterScenario(s); err == nil {
			t.Errorf("RegisterScenario(%q) accepted an invalid scenario", s.Name)
		}
	}
}

// TestScenarioDeterminismPerSeed pins the registry invariant every
// consumer (matrix snapshot, CLIs, tenant seeding) relies on: building a
// registered scenario twice with the same seed yields bin-for-bin
// identical traces with a positive bin width that divides into the
// hierarchy's T_L0 grid.
func TestScenarioDeterminismPerSeed(t *testing.T) {
	for _, sc := range Scenarios() {
		if sc.NeedsArg {
			continue
		}
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			a, err := sc.Trace(7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := sc.Trace(7)
			if err != nil {
				t.Fatal(err)
			}
			if a.Len() == 0 || a.Step <= 0 {
				t.Fatalf("trace has %d bins at step %v", a.Len(), a.Step)
			}
			if rem := a.Step / 30; rem != float64(int(rem)) {
				t.Errorf("bin width %v s is not a multiple of T_L0 = 30 s", a.Step)
			}
			if a.Len() != b.Len() || a.Start != b.Start || a.Step != b.Step {
				t.Fatalf("shape differs across builds: (%d,%v,%v) vs (%d,%v,%v)",
					a.Len(), a.Start, a.Step, b.Len(), b.Start, b.Step)
			}
			for i := range a.Values {
				if a.Values[i] != b.Values[i] {
					t.Fatalf("bin %d differs: %v vs %v", i, a.Values[i], b.Values[i])
				}
			}
			if err := sc.StoreConfig().Validate(); err != nil {
				t.Errorf("store config invalid: %v", err)
			}
		})
	}
}

func TestScenarioSeedSensitivity(t *testing.T) {
	for _, name := range []string{"flashcrowd", "diurnal-noisy", "sawtooth"} {
		sc, err := LookupScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := sc.Trace(1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sc.Trace(2)
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i := range a.Values {
			if a.Values[i] != b.Values[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("scenario %q identical across seeds 1 and 2", name)
		}
	}
}

func TestTracefileRoundTrip(t *testing.T) {
	sc, err := LookupScenario("synthetic")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := sc.Trace(3)
	if err != nil {
		t.Fatal(err)
	}
	orig = orig.Slice(0, 64)
	path := filepath.Join(t.TempDir(), "day.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	replay, err := LookupScenario("tracefile:" + path)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Arg != path {
		t.Errorf("bound arg %q, want %q", replay.Arg, path)
	}
	got, err := replay.Trace(99) // seed must not matter for a recorded trace
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != orig.Len() || got.Step != orig.Step || got.Start != orig.Start {
		t.Fatalf("shape (%d,%v,%v), want (%d,%v,%v)", got.Len(), got.Start, got.Step, orig.Len(), orig.Start, orig.Step)
	}
	for i := range orig.Values {
		if got.Values[i] != orig.Values[i] {
			t.Fatalf("bin %d: %v != %v", i, got.Values[i], orig.Values[i])
		}
	}
}

func TestTracefileMissingAndEmpty(t *testing.T) {
	if sc, err := LookupScenario("tracefile:" + filepath.Join(t.TempDir(), "absent.csv")); err != nil {
		t.Fatalf("lookup should bind lazily: %v", err)
	} else if _, err := sc.Trace(1); err == nil {
		t.Error("want error for missing trace file")
	}
	empty := filepath.Join(t.TempDir(), "empty.csv")
	if err := os.WriteFile(empty, []byte("time_s,value\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := LookupScenario("tracefile:" + empty)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Trace(1); err == nil {
		t.Error("want error for empty trace file")
	}
}

func TestHeavyTailStore(t *testing.T) {
	sc, err := LookupScenario("heavytail")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.StoreConfig()
	if cfg.TailFrac <= 0 {
		t.Fatalf("heavytail scenario has no tail mix: %+v", cfg)
	}
	s, err := NewStore(des.NewStream(5, "store"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tail := 0
	for i := 0; i < s.Objects(); i++ {
		d := s.Demand(i)
		if d > cfg.TailCap {
			t.Fatalf("object %d demand %v exceeds cap %v", i, d, cfg.TailCap)
		}
		if d > MaxDemand {
			tail++
		}
	}
	frac := float64(tail) / float64(s.Objects())
	if frac < cfg.TailFrac/3 || frac > cfg.TailFrac*3 {
		t.Errorf("tail fraction %.4f far from configured %.4f", frac, cfg.TailFrac)
	}
	// Determinism per seed.
	s2, err := NewStore(des.NewStream(5, "store"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Objects(); i++ {
		if s.Demand(i) != s2.Demand(i) {
			t.Fatalf("demand %d differs across same-seed stores", i)
		}
	}
}

func TestStoreConfigTailValidation(t *testing.T) {
	base := DefaultStoreConfig()
	bad := base
	bad.TailFrac = 0.1 // alpha and cap unset
	if err := bad.Validate(); err == nil {
		t.Error("tail mix without alpha/cap should not validate")
	}
	bad = base
	bad.TailFrac = 0.1
	bad.TailAlpha = 1.3
	bad.TailCap = MaxDemand / 2
	if err := bad.Validate(); err == nil {
		t.Error("tail cap below max demand should not validate")
	}
	bad = base
	bad.TailFrac = 1
	if err := bad.Validate(); err == nil {
		t.Error("tail fraction 1 should not validate")
	}
}

func TestFailstormPlanShape(t *testing.T) {
	sc, err := LookupScenario("failstorm")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sc.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	plan := sc.FailurePlan(tr)
	if len(plan) == 0 {
		t.Fatal("failstorm has an empty failure plan")
	}
	span := tr.End() - tr.Start
	fails, repairs := 0, 0
	for _, f := range plan {
		if f.At < 0 || f.At > span {
			t.Errorf("event at %v outside trace span %v", f.At, span)
		}
		if f.Repair {
			repairs++
		} else {
			fails++
		}
	}
	if fails < 2 {
		t.Errorf("failstorm injects %d failures, want >= 2 (correlated)", fails)
	}
	if repairs != fails {
		t.Errorf("failstorm has %d repairs for %d failures", repairs, fails)
	}
	// Plans of failure-free scenarios are nil.
	plain, err := LookupScenario("synthetic")
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.FailurePlan(tr); got != nil {
		t.Errorf("synthetic has a failure plan: %v", got)
	}
}
