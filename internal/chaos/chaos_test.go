package chaos

import (
	"reflect"
	"strings"
	"testing"
)

func TestScheduleQuantization(t *testing.T) {
	p := Plan{Faults: []Fault{
		{At: 0, Module: 0, Kind: KindDrop},      // ceil(0/30) = 0
		{At: 29.9, Module: 0, Kind: KindNaN},    // ceil -> 1
		{At: 30, Module: 0, Kind: KindNegative}, // exact boundary -> 1
		{At: 61, Module: 0, Kind: KindSpike},    // ceil -> 3
	}}
	s, err := p.Schedule(30, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantTicks := map[int][]Kind{
		0: {KindDrop},
		1: {KindNaN, KindNegative},
		3: {KindSpike},
	}
	for k, kinds := range wantTicks {
		acts := s.ActionsAt(k)
		if len(acts) != len(kinds) {
			t.Fatalf("tick %d: %d actions, want %d", k, len(acts), len(kinds))
		}
		for i, want := range kinds {
			if acts[i].Kind != want {
				t.Errorf("tick %d action %d: kind %v, want %v", k, i, acts[i].Kind, want)
			}
		}
	}
	if acts := s.ActionsAt(2); acts != nil {
		t.Errorf("tick 2 has %d actions, want none", len(acts))
	}
}

func TestScheduleDefaultsAndFanout(t *testing.T) {
	p := Plan{Faults: []Fault{
		{At: 10, Module: -1, Kind: KindDrop},              // fans out to all modules
		{At: 10, Module: 5, Kind: KindNaN},                // out of range: skipped
		{At: 40, Module: 1, Kind: KindSpike},              // Factor 0 -> 1000
		{At: 40, Module: 1, Kind: KindDelay, Ticks: 0},    // Ticks 0 -> 1
		{At: 70, Module: 0, Kind: KindSpike, Factor: 2.5}, // explicit factor kept
	}}
	s, err := p.Schedule(30, 3)
	if err != nil {
		t.Fatal(err)
	}
	first := s.ActionsAt(1)
	if len(first) != 3 {
		t.Fatalf("module -1 fan-out produced %d actions, want 3 (out-of-range fault skipped)", len(first))
	}
	for i, a := range first {
		if a.Module != i || a.Kind != KindDrop || a.Ticks != 1 {
			t.Errorf("fan-out action %d = %+v", i, a)
		}
	}
	second := s.ActionsAt(2)
	if len(second) != 2 || second[0].Factor != 1000 || second[1].Ticks != 1 {
		t.Errorf("defaults not applied: %+v", second)
	}
	if got := s.ActionsAt(3); len(got) != 1 || got[0].Factor != 2.5 {
		t.Errorf("explicit factor lost: %+v", got)
	}
}

// TestScheduleEmptyIsNil pins the no-op guarantee: a plan that injects no
// sensor faults schedules to nil, the exact representation of "no chaos",
// and a nil schedule answers safely.
func TestScheduleEmptyIsNil(t *testing.T) {
	for name, p := range map[string]Plan{
		"zero value":       {},
		"failures only":    {Failures: flapPlan(1, 1000).Failures},
		"budget only":      {DecisionBudget: 48},
		"all out of range": {Faults: []Fault{{At: 10, Module: 7, Kind: KindDrop}}},
	} {
		s, err := p.Schedule(30, 2)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if s != nil {
			t.Errorf("%s: schedule is non-nil", name)
		}
	}
	var nilSched *Schedule
	if nilSched.ActionsAt(0) != nil {
		t.Error("nil schedule returned actions")
	}
	if !(Plan{}).Empty() {
		t.Error("zero plan is not Empty")
	}
	if (Plan{DecisionBudget: 1}).Empty() {
		t.Error("budget-only plan claims Empty")
	}
}

func TestScheduleValidation(t *testing.T) {
	if _, err := (Plan{Faults: []Fault{{At: 1}}}).Schedule(0, 2); err == nil {
		t.Error("period 0 accepted")
	}
	if _, err := (Plan{Faults: []Fault{{At: -1}}}).Schedule(30, 2); err == nil {
		t.Error("negative fault time accepted")
	}
	if _, err := (Plan{Faults: []Fault{{At: 1, Kind: Kind(99)}}}).Schedule(30, 2); err == nil {
		t.Error("unknown fault kind accepted")
	}
}

// TestRegistry pins the plan table: its names are unique, sorted,
// non-empty and free of separators, every plan has a builder, and Lookup
// finds each built-in plan and no other.
func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) < 7 {
		t.Fatalf("table holds %d plans, want >= 7: %v", len(names), names)
	}
	for i, name := range names {
		if name == "" || strings.ContainsAny(name, ": \t\n") {
			t.Errorf("plan name %q is empty or holds a separator", name)
		}
		if i > 0 && names[i-1] >= name {
			t.Errorf("names not sorted and unique: %v", names)
		}
	}
	for _, s := range Specs() {
		if s.Build == nil {
			t.Errorf("plan %q has no builder", s.Name)
		}
	}
	for _, want := range []string{"none", "drop-bins", "corrupt-counts", "delay-dupe", "flap", "deadline", "mixed"} {
		if s, err := Lookup(want); err != nil || s.Name != want {
			t.Errorf("built-in plan %q: got %q, %v", want, s.Name, err)
		}
	}
	if _, err := Lookup("no-such-plan"); err == nil {
		t.Error("Lookup accepted an unknown name")
	}
}

// TestBuildersDeterministic pins the per-seed determinism contract every
// committed matrix relies on: same (seed, span) -> identical plan; a
// different seed must move at least one non-trivial plan.
func TestBuildersDeterministic(t *testing.T) {
	const span = 4800.0
	changed := false
	for _, spec := range Specs() {
		a := spec.Build(3, span)
		b := spec.Build(3, span)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("plan %q: same seed built different plans", spec.Name)
		}
		if !reflect.DeepEqual(a, spec.Build(4, span)) {
			changed = true
		}
		// Every planned fault must land inside the run.
		for i, f := range a.Faults {
			if f.At < 0 || f.At > span {
				t.Errorf("plan %q fault %d at %v outside [0, %v]", spec.Name, i, f.At, span)
			}
		}
		if _, err := a.Schedule(30, 4); err != nil {
			t.Errorf("plan %q does not schedule: %v", spec.Name, err)
		}
	}
	if !changed {
		t.Error("no plan varied with the seed")
	}
	if p, _ := Lookup("none"); !p.Build(1, span).Empty() {
		t.Error(`plan "none" is not empty`)
	}
}
