package engine

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"sync"
	"testing"

	"hierctl/internal/chaos"
	"hierctl/internal/ckpt"
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
// the injector's and the sanitizer's counters after every tick and that
// each module's observation writes the checkpoint bytes of the sanitizer's
// last good one, and returns what the policy observed, the run's totals and
// how many actions fired.
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
			var st, good ckpt.Writer
			checkpointStats(&st, h.stats[i], len(h.per[i]))
			checkpointStats(&good, h.san[i].good, len(h.per[i]))
			if !bytes.Equal(st.Bytes(), good.Bytes()) {
				t.Fatalf("tick %d module %d: observation %+v, last good %+v", k, i, h.stats[i], h.san[i].good)
			}
		}
	}
	if err := h.Finish(); err != nil {
		t.Fatal(err)
	}
	return pol.intervals, h.Totals(), fired
}

// TestSanitizerEndsTickAtLastGood pins what a harness checkpoint relies on
// to write each module's observation once: after every tick the
// observation the policy was shown is the sanitizer's last good one, held
// where a fault dropped or spoiled the fresh one and refreshed from it
// otherwise (chaosRun checks it tick by tick). The plan fires every sensor
// fault kind, on both modules, some overlapping.
//
//hpm:pin checkpoint
func TestSanitizerEndsTickAtLastGood(t *testing.T) {
	plan := chaos.Plan{Name: "sensors", Faults: []chaos.Fault{
		{At: 60, Module: 0, Kind: chaos.KindDrop, Ticks: 3},
		{At: 90, Module: 1, Kind: chaos.KindNaN},
		{At: 150, Module: 0, Kind: chaos.KindNegative},
		{At: 180, Module: 1, Kind: chaos.KindSpike, Factor: 50},
		{At: 240, Module: 0, Kind: chaos.KindDelay, Ticks: 2},
		{At: 270, Module: 0, Kind: chaos.KindNaN}, // spoils a tick the delay reads as dropped
		{At: 300, Module: 1, Kind: chaos.KindDupe},
		{At: 330, Module: 1, Kind: chaos.KindDrop}, // drops the tick the dupe supersedes
		{At: 420, Module: 0, Kind: chaos.KindDupe},
		{At: 450, Module: 0, Kind: chaos.KindNegative}, // spoils the tick the dupe delivers on
		{At: 600, Module: 1, Kind: chaos.KindDelay, Ticks: 4},
		{At: 630, Module: 1, Kind: chaos.KindSpike},
	}}
	sched, err := plan.Schedule(fuzzPeriod, 2)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[chaos.Kind]int{}
	for k := 0; k < fuzzTicks; k++ {
		for _, a := range sched.ActionsAt(k) {
			kinds[a.Kind]++
		}
	}
	for _, kind := range []chaos.Kind{chaos.KindDrop, chaos.KindNaN, chaos.KindNegative, chaos.KindSpike, chaos.KindDelay, chaos.KindDupe} {
		if kinds[kind] == 0 {
			t.Fatalf("no %v action fires inside the run: %v", kind, kinds)
		}
	}
	if _, totals, _ := chaosRun(t, plan); totals.StaleObservations == 0 {
		t.Fatalf("the plan held no observation stale: %+v", totals)
	}
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
