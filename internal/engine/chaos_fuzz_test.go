package engine

import (
	"encoding/binary"
	"math"
	"reflect"
	"sync"
	"testing"

	"hierctl/internal/chaos"
	"hierctl/internal/cluster"
)

// Fuzzed chaos plans are a run of fixed-width fault records, so every
// mutation of the bytes is still a plan: At and Factor as float64 bits,
// Ticks as int64, Module as int8, Kind as a byte — 26 bytes a fault,
// little-endian, at most fuzzMaxFaults of them.
const (
	fuzzFaultBytes = 26
	fuzzMaxFaults  = 48
	fuzzTicks      = 64
	fuzzPeriod     = 30.0
)

func encodeFaults(faults []chaos.Fault) []byte {
	out := make([]byte, 0, len(faults)*fuzzFaultBytes)
	for _, f := range faults {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(f.At))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(f.Factor))
		out = binary.LittleEndian.AppendUint64(out, uint64(f.Ticks))
		out = append(out, byte(int8(f.Module)), byte(f.Kind))
	}
	return out
}

func decodeFaults(data []byte) []chaos.Fault {
	var faults []chaos.Fault
	for ; len(data) >= fuzzFaultBytes && len(faults) < fuzzMaxFaults; data = data[fuzzFaultBytes:] {
		faults = append(faults, chaos.Fault{
			At:     math.Float64frombits(binary.LittleEndian.Uint64(data)),
			Factor: math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
			Ticks:  int(int64(binary.LittleEndian.Uint64(data[16:]))),
			Module: int(int8(data[24])),
			Kind:   chaos.Kind(data[25]),
		})
	}
	return faults
}

// checkedPolicy dispatches uniformly and fails the run if the harness
// shows it an observation the sanitizer should have held back.
type checkedPolicy struct {
	fixedPolicy
	t         *testing.T
	intervals []Interval
}

func (p *checkedPolicy) Observe(tick int, iv Interval, stats []ModuleStats) error {
	for i, st := range stats {
		if !statsValid(st) {
			p.t.Fatalf("tick %d: the policy was shown module %d as %+v", tick, i, st)
		}
	}
	p.intervals = append(p.intervals, iv)
	return nil
}

// chaosRun steps a two-module harness fuzzTicks ticks under plan, checking
// the injector's and the sanitizer's counters after every tick, and returns
// what the policy observed, the run's totals and how many actions fired.
func chaosRun(t *testing.T, plan chaos.Plan) ([]Interval, Totals, int) {
	t.Helper()
	var spec cluster.Spec
	for _, name := range []string{"M1", "M2"} {
		m, err := cluster.StandardModule(name, name+"-c")
		if err != nil {
			t.Fatal(err)
		}
		spec.Modules = append(spec.Modules, m)
	}
	cfg := testConfig(spec, 0)
	cfg.PeriodSeconds, cfg.BinSeconds = fuzzPeriod, 2*fuzzPeriod
	cfg.Chaos = plan
	pol := &checkedPolicy{t: t}
	h, err := New(cfg, testStore(t), pol)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	for k := 0; k < fuzzTicks; k++ {
		if k%h.SubSteps() == 0 {
			if err := h.PushBin(float64(30 + 25*(k%7))); err != nil {
				t.Fatal(err)
			}
		}
		fired += len(h.chaos.ActionsAt(k))
		if err := h.Tick(); err != nil {
			t.Fatal(err)
		}
		held := int64((k + 1) * len(spec.Modules))
		if h.stale < 0 || h.stale > held || h.rejects < 0 || h.rejects > h.stale {
			t.Fatalf("tick %d: %d stale and %d rejected of %d module observations", k, h.stale, h.rejects, held)
		}
		for i := range h.inj {
			if in := &h.inj[i]; in.dropUntil < 0 || in.stashDue < -1 {
				t.Fatalf("tick %d module %d: drop window until %d, stash due %d: a fault's length wrapped", k, i, in.dropUntil, in.stashDue)
			}
		}
	}
	if err := h.Finish(); err != nil {
		t.Fatal(err)
	}
	return pol.intervals, h.Totals(), fired
}

// FuzzChaosSchedule is the safety pin of the chaos plan's way in,
// Plan.Schedule and the injector it feeds. On any fault list Schedule
// returns an error or a schedule whose every fault has a finite time and
// every action names a module of the cluster; a 64-tick two-module run
// under it never panics, never shows the policy an observation statsValid
// rejects, and keeps the staleness counters and the injector's tick
// arithmetic from wrapping however long a fault asks to last; and a plan
// none of whose actions fire inside the run — the empty fault list first of
// all — is bit-identical to no plan. The committed corpus under
// testdata/fuzz/FuzzChaosSchedule holds the seven registered plans at two
// spans (seed 1; none, flap and deadline carry no sensor fault and are the
// one "empty" seed) and the extremes: At NaN, +Inf, negative and huge,
// Ticks near MaxInt and MinInt, Module -1 and out of range, an unknown
// Kind, Factor 0, NaN, -1 and +Inf, and every kind on one module in one
// tick.
//
//hpm:pin fuzz
func FuzzChaosSchedule(f *testing.F) {
	var baseline struct {
		once      sync.Once
		intervals []Interval
		totals    Totals
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const modules = 2
		plan := chaos.Plan{Name: "fuzz", Faults: decodeFaults(data)}
		sched, err := plan.Schedule(fuzzPeriod, modules)
		if err != nil {
			return
		}
		for _, flt := range plan.Faults {
			if !(flt.At >= 0) || math.IsInf(flt.At, 1) {
				t.Fatalf("fault %+v scheduled: its time has no tick", flt)
			}
			// The fault's own tick, where its actions were filed.
			k := math.Ceil(flt.At / fuzzPeriod)
			if k >= 1<<53 {
				continue
			}
			for _, a := range sched.ActionsAt(int(k)) {
				if a.Module < 0 || a.Module >= modules || a.Ticks < 1 {
					t.Fatalf("fault %+v scheduled as %+v on a %d-module cluster", flt, a, modules)
				}
			}
		}
		intervals, totals, fired := chaosRun(t, plan)
		if fired > 0 {
			return
		}
		baseline.once.Do(func() { baseline.intervals, baseline.totals, _ = chaosRun(t, chaos.Plan{}) })
		if !reflect.DeepEqual(intervals, baseline.intervals) || totals != baseline.totals {
			t.Fatalf("no action fired inside the run, yet it diverged from the plan-free run:\n%+v\n%+v", totals, baseline.totals)
		}
	})
}
