package engine

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hierctl/internal/cluster"
	"hierctl/internal/des"
	flight "hierctl/internal/obs"
	"hierctl/internal/series"
	"hierctl/internal/workload"
)

// stubPolicy records the harness's callbacks and dispatches uniformly.
type stubPolicy struct {
	plant *cluster.Plant
	inits int
	// decides keeps the pending count of every Decide call.
	decides []int
	observe int
	// intervals keeps every Interval Observe was handed.
	intervals []Interval
}

func (s *stubPolicy) Name() string { return "stub" }

func (s *stubPolicy) Init(p *cluster.Plant) error {
	s.plant = p
	s.inits++
	return nil
}

func (s *stubPolicy) Decide(tick, pending int) (Settings, error) {
	s.decides = append(s.decides, pending)
	gm := make([]float64, s.plant.Modules())
	gc := make([][]float64, s.plant.Modules())
	for i := range gc {
		gc[i] = make([]float64, s.plant.ModuleSize(i))
		for j := range gc[i] {
			gc[i][j] = 1
			gm[i]++
		}
	}
	return Settings{GammaModules: gm, GammaComputers: gc}, nil
}

func (s *stubPolicy) Observe(tick int, iv Interval, stats []ModuleStats) error {
	s.observe++
	s.intervals = append(s.intervals, iv)
	return nil
}

func testSpec(t *testing.T) cluster.Spec {
	t.Helper()
	m, err := cluster.StandardModule("M1", "c")
	if err != nil {
		t.Fatal(err)
	}
	return cluster.Spec{Modules: []cluster.ModuleSpec{m}}
}

func testStore(t *testing.T) *workload.Store {
	t.Helper()
	s, err := workload.NewStore(des.NewStream(2, "store"), workload.DefaultStoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testConfig(spec cluster.Spec, bins int) Config {
	return Config{
		Spec:          spec,
		Seed:          1,
		PeriodSeconds: 30,
		BinSeconds:    60,
		TotalBins:     bins,
		DrainSeconds:  60,
	}
}

func TestHarnessLifecycle(t *testing.T) {
	spec := testSpec(t)
	pol := &stubPolicy{}
	h, err := New(testConfig(spec, 3), testStore(t), pol)
	if err != nil {
		t.Fatal(err)
	}
	if pol.inits != 1 {
		t.Fatalf("Init called %d times, want 1", pol.inits)
	}
	if got := h.SubSteps(); got != 2 {
		t.Fatalf("SubSteps = %d, want 2", got)
	}
	// The warm start boots every computer; the pre-roll is the longest
	// boot delay, the plant's clock sits at its end and the first tick
	// starts there.
	preroll := h.Plant().Now()
	if preroll <= 0 {
		t.Fatalf("plant clock after the pre-roll = %v, want > 0", preroll)
	}
	if got := h.NextTickTime(); got != preroll {
		t.Fatalf("NextTickTime = %v before any tick, want preroll %v", got, preroll)
	}
	if op := h.Plant().OperationalComputers(); op != 4 {
		t.Fatalf("warm start left %d computers operational, want 4", op)
	}

	// Ticking before any bin is ingested must fail, not deadlock.
	if err := h.Tick(); err == nil || !strings.Contains(err.Error(), "outruns") {
		t.Fatalf("Tick without a bin: %v, want outrun error", err)
	}
	if err := h.PushBin(40); err != nil {
		t.Fatal(err)
	}
	// A second push before the bin's ticks ran is a cadence bug.
	if err := h.PushBin(40); err == nil || !strings.Contains(err.Error(), "mid-bin") {
		t.Fatalf("mid-bin push: %v, want mid-bin error", err)
	}
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := h.PushBin(40); err != nil {
		t.Fatal(err)
	}
	if want := preroll + 2*30; h.NextTickTime() != want {
		t.Fatalf("NextTickTime = %v after 2 ticks, want %v", h.NextTickTime(), want)
	}

	// Decide ran once per tick and was told what each tick dispatches: bin
	// 0's two ticks share its 40 requests.
	if len(pol.decides) != 2 || pol.observe != 2 {
		t.Fatalf("decides %d observes %d, want 2 and 2", len(pol.decides), pol.observe)
	}
	if got := pol.decides[0] + pol.decides[1]; got != 40 || pol.decides[0] == 0 || pol.decides[1] == 0 {
		t.Fatalf("bin 0's ticks were shown %v pending requests, want two non-empty shares of 40", pol.decides)
	}

	if h.Done() {
		t.Fatal("Done before the trace is consumed")
	}
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := h.PushBin(40); err != nil {
		t.Fatal(err)
	}
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	if !h.Done() {
		t.Fatal("not Done after consuming the whole trace")
	}
	// The trace length is fixed: a fourth bin must be refused.
	if err := h.PushBin(40); err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("push past TotalBins: %v, want exhausted error", err)
	}
	if err := h.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := h.Finish(); err == nil {
		t.Fatal("second Finish succeeded, want error")
	}
	if err := h.Tick(); err == nil {
		t.Fatal("Tick after Finish succeeded, want error")
	}
	tot := h.Totals()
	if tot.Completed == 0 || tot.Energy <= 0 {
		t.Fatalf("Totals = %+v, want completions and energy", tot)
	}
	if w := h.WindowTotals(); w.Arrived == 0 || w.Completed == 0 {
		t.Fatalf("WindowTotals arrived %d completed %d, want both > 0", w.Arrived, w.Completed)
	}
}

// TestBinRingSpreadFoldsWithinBin pins the spread rule's clamp: offsets
// fold within the request's own bin.
func TestBinRingSpreadFoldsWithinBin(t *testing.T) {
	spec := testSpec(t)
	h, err := New(testConfig(spec, 0), testStore(t), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	h.spread(0, []workload.Request{
		{Arrival: -5, Demand: 0.01},  // before the bin → first tick
		{Arrival: 0, Demand: 0.01},   // first tick
		{Arrival: 45, Demand: 0.01},  // second tick
		{Arrival: 500, Demand: 0.01}, // past the bin → clamped to its last tick
	})
	if n := h.cuts[1] - h.cuts[0]; n != 2 {
		t.Fatalf("tick 0's run holds %d, want 2", n)
	}
	if n := h.cuts[2] - h.cuts[1]; n != 2 {
		t.Fatalf("tick 1's run holds %d, want 2", n)
	}
}

// TestRingSlotMatchesAbsoluteGridIndex pins why one spread rule serves
// every runner. The flat runners used to index a request onto the run's
// absolute tick grid, tick + int((a − binStart)/period); the harness puts it
// in run int((a − binStart)/period) of its own bin, clamped. For arrivals
// drawn the way the feed draws them (binStart + u·bin, u in [0, 1)) the two
// agree — tick + run is the old index — for every offset the old index
// kept inside the bin. The only other case is the rounding edge the old
// spill counter existed for: u so close to 1 that binStart + u·bin rounds
// onto the bin's right edge, where the old rule moved the request one tick
// into the next bin (or spilled it at the trace end) and the harness keeps
// it in its own bin's last tick.
func TestRingSlotMatchesAbsoluteGridIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	periods := []float64{0.25, 1, 7.5, 30, 45, 0.1}
	starts := []float64{0, 3600, 86400, 1.5e6, 977.25, 1e-3}
	edges := 0
	for trial := 0; trial < 2000; trial++ {
		sub := 1 + rng.Intn(12)
		period := periods[rng.Intn(len(periods))]
		cfg := Config{
			PeriodSeconds: period,
			BinSeconds:    period * float64(sub),
			Start:         starts[rng.Intn(len(starts))],
		}
		h := &Harness{cfg: cfg, sub: sub, cuts: make([]int, sub+1)}
		bin := rng.Intn(5000)
		h.tick = bin * sub
		binStart := cfg.Start + float64(bin)*cfg.BinSeconds

		us := []float64{0, math.Nextafter(1, 0), float64(rng.Intn(sub)) / float64(sub)}
		for i := 0; i < 8; i++ {
			us = append(us, rng.Float64())
		}
		for _, u := range us {
			a := binStart + u*cfg.BinSeconds // synthBin's draw
			old := h.tick + int((a-binStart)/period)
			h.spread(bin, []workload.Request{{Arrival: a}})
			slot := -1
			for d := 0; d < sub; d++ {
				if h.cuts[d+1]-h.cuts[d] == 1 {
					slot = d
				}
			}
			switch {
			case slot < 0:
				t.Fatalf("trial %d u=%v: request landed in no run", trial, u)
			case old < h.tick+sub:
				if h.tick+slot != old {
					t.Fatalf("trial %d (sub %d, period %v, start %v, bin %d) u=%v: harness tick %d, absolute-grid index %d",
						trial, sub, period, cfg.Start, bin, u, h.tick+slot, old)
				}
			default:
				// Past the bin on the old grid: only the rounding edge gets
				// here, and the harness folds it into the bin's last tick.
				edges++
				if u != math.Nextafter(1, 0) || a-binStart < cfg.BinSeconds {
					t.Fatalf("trial %d u=%v: offset %v of a %v s bin indexed past the bin", trial, u, a-binStart, cfg.BinSeconds)
				}
				if slot != sub-1 {
					t.Fatalf("trial %d: right-edge arrival in run %d, want the last (%d)", trial, slot, sub-1)
				}
			}
		}
	}
	t.Logf("%d of 2000 largest-u draws rounded onto the bin's right edge", edges)
}

func TestConfigValidation(t *testing.T) {
	spec := testSpec(t)
	store := testStore(t)
	base := testConfig(spec, 2)

	bad := base
	bad.PeriodSeconds = 45
	if _, err := New(bad, store, &stubPolicy{}); err == nil {
		t.Fatal("non-tiling period accepted")
	}
	bad = base
	bad.DrainSeconds = -1
	if _, err := New(bad, store, &stubPolicy{}); err == nil {
		t.Fatal("negative drain accepted")
	}
	if _, err := New(base, store, nil); err == nil {
		t.Fatal("nil policy accepted")
	}
}

// TestRunTraceMatchesManualStepping pins RunTrace as pure sugar over
// PushBin/Tick/Finish: both drives produce identical totals.
func TestRunTraceMatchesManualStepping(t *testing.T) {
	spec := testSpec(t)
	trace := series.New(0, 60, 0)
	for i := 0; i < 6; i++ {
		trace.Values = append(trace.Values, 40+10*float64(i%3))
	}

	batch, err := New(testConfig(spec, trace.Len()), testStore(t), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := batch.RunTrace(trace); err != nil {
		t.Fatal(err)
	}
	bt := batch.Totals()

	man, err := New(testConfig(spec, trace.Len()), testStore(t), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for !man.Done() {
		if man.Bins()*man.SubSteps() == man.Ticks() {
			if err := man.PushBin(trace.Values[man.Bins()]); err != nil {
				t.Fatal(err)
			}
		}
		if err := man.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := man.Finish(); err != nil {
		t.Fatal(err)
	}
	mt := man.Totals()
	if bt != mt {
		t.Fatalf("batch totals %+v != manual totals %+v", bt, mt)
	}
}

// recordedRun drives a varied 12-bin run under a flight recorder with the
// given QoS target and returns its tick records, the intervals the policy
// observed and the run totals.
func recordedRun(t *testing.T, target float64) ([]flight.Record, []Interval, Totals) {
	t.Helper()
	counts := []float64{60, 900, 2400, 40, 3000, 3000, 10, 1500, 2800, 5, 700, 90}
	cfg := testConfig(testSpec(t), len(counts))
	cfg.QoSTarget = target
	rec, err := flight.NewRecorder(64)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Recorder = rec
	pol := &stubPolicy{}
	h, err := New(cfg, testStore(t), pol)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.RunTrace(series.FromValues(0, cfg.BinSeconds, counts)); err != nil {
		t.Fatal(err)
	}
	recs := rec.Window(nil, 0)
	if len(recs) != h.Ticks() || len(pol.intervals) != h.Ticks() {
		t.Fatalf("%d tick records and %d observed intervals for %d ticks", len(recs), len(pol.intervals), h.Ticks())
	}
	tot := h.Totals()
	return recs, pol.intervals, tot
}

// TestHarnessTickRecords pins the engine's flight-recorder contract: one
// LevelTick record per tick carrying the whole-decision latency, the
// interval mean response — the very value the policy observed — and a QoS
// flag judged against cfg.QoSTarget.
func TestHarnessTickRecords(t *testing.T) {
	recs, intervals, _ := recordedRun(t, 1e-9) // any completed interval violates
	sawCompleted := false
	for i, r := range recs {
		if r.Level != flight.LevelTick || r.Tick != int64(i) || r.Module != -1 || r.Comp != -1 {
			t.Fatalf("record %d = %+v", i, r)
		}
		if r.DecideNs < 0 {
			t.Fatalf("record %d: negative decide latency", i)
		}
		if r.Resp != intervals[i].MeanResponse() {
			t.Fatalf("record %d: resp %v, the policy observed %v", i, r.Resp, intervals[i].MeanResponse())
		}
		if r.Resp > 0 {
			sawCompleted = true
			if !r.QoS {
				t.Fatalf("record %d: resp %v above target yet QoS flag unset", i, r.Resp)
			}
		}
	}
	if !sawCompleted {
		t.Fatal("no tick saw completions; the QoS path went unexercised")
	}
}

// TestViolationFracCountsTickRecordFlags pins the one QoS judgement: on a
// run where some intervals violate and some do not, the tick records'
// QoS-flag count is exactly Totals.ViolationFrac × the ticks that completed
// anything — telemetry and the run outcome cannot disagree.
func TestViolationFracCountsTickRecordFlags(t *testing.T) {
	// Judge against the median observed response so the run splits.
	first, _, _ := recordedRun(t, 1e-9)
	var resps []float64
	for _, r := range first {
		if r.Resp > 0 {
			resps = append(resps, r.Resp)
		}
	}
	sort.Float64s(resps)
	target := resps[len(resps)/2]

	recs, intervals, tot := recordedRun(t, target)
	flags, respTicks := 0, 0
	for i, r := range recs {
		if intervals[i].Completed > 0 {
			respTicks++
		}
		if r.QoS {
			flags++
		}
	}
	if flags == 0 || flags == respTicks {
		t.Fatalf("%d of %d response ticks violate a median target %v; the run does not split", flags, respTicks, target)
	}
	if want := float64(flags) / float64(respTicks); tot.ViolationFrac != want {
		t.Fatalf("ViolationFrac %v, tick records flag %d of %d response ticks (%v)", tot.ViolationFrac, flags, respTicks, want)
	}
}

// onePolicy routes everything to computer 0 of module 0 — as unlike
// stubPolicy's uniform split as a dispatch rule gets.
type onePolicy struct{ st Settings }

func (p *onePolicy) Name() string { return "one" }

func (p *onePolicy) Init(plant *cluster.Plant) error {
	p.st.GammaModules = make([]float64, plant.Modules())
	p.st.GammaComputers = make([][]float64, plant.Modules())
	for i := range p.st.GammaComputers {
		p.st.GammaComputers[i] = make([]float64, plant.ModuleSize(i))
	}
	p.st.GammaModules[0], p.st.GammaComputers[0][0] = 1, 1
	return nil
}

func (p *onePolicy) Decide(int, int) (Settings, error)          { return p.st, nil }
func (p *onePolicy) Observe(int, Interval, []ModuleStats) error { return nil }

// TestPoliciesShareOneRequestStream pins common random numbers: the request
// stream is a function of (seed, store, counts) and of nothing a policy
// does, so two harnesses at one seed under two different policies are
// handed identical (Arrival, Demand) batches, bin after bin.
func TestPoliciesShareOneRequestStream(t *testing.T) {
	spec := testSpec(t)
	cfg := testConfig(spec, 0)
	a, err := New(cfg, testStore(t), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg, testStore(t), &onePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for bin := 0; bin < 64; bin++ {
		count := float64(20 + 37*bin%400)
		for _, h := range []*Harness{a, b} {
			if err := h.PushBin(count); err != nil {
				t.Fatal(err)
			}
		}
		if len(a.batch) != int(count) || !reflect.DeepEqual(a.batch, b.batch) {
			t.Fatalf("bin %d: the two policies were handed different batches (%d and %d requests)", bin, len(a.batch), len(b.batch))
		}
		total += len(a.batch)
		for _, h := range []*Harness{a, b} {
			for d := 0; d < h.SubSteps(); d++ {
				if err := h.Tick(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if qa, qb := a.Plant().Computer(0, 0).TotalCompleted(), b.Plant().Computer(0, 0).TotalCompleted(); qa == qb {
		t.Fatalf("both policies completed %d of %d requests on computer 0: they did not route differently", qa, total)
	}
}

// TestMeanResponseSummedOnce pins the one response sum: each completion
// adds its response to its computer's interval sum and to the plant's
// latency histogram, so the tick intervals' response mass over their
// completions is the histogram's mean up to summation order, and the run's
// Totals.MeanResponse is the histogram's mean exactly.
func TestMeanResponseSummedOnce(t *testing.T) {
	pol := &stubPolicy{}
	h, err := New(testConfig(testSpec(t), 100), testStore(t), pol)
	if err != nil {
		t.Fatal(err)
	}
	for bin := 0; bin < 100; bin++ {
		if err := h.PushBin(float64(300 + 900*(bin%7))); err != nil {
			t.Fatal(err)
		}
		for d := 0; d < h.SubSteps(); d++ {
			if err := h.Tick(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if h.Ticks() != 200 {
		t.Fatalf("%d ticks, want 200", h.Ticks())
	}
	var mass float64
	var completed int
	for _, iv := range pol.intervals {
		mass += iv.RespMass
		completed += iv.Completed
	}
	lat := h.Plant().Latencies()
	if int64(completed) != lat.Count() || completed == 0 {
		t.Fatalf("intervals completed %d, histogram holds %d", completed, lat.Count())
	}
	if got, want := mass/float64(completed), lat.Mean(); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("interval response mass / completions = %v, histogram mean %v", got, want)
	}
	if err := h.Finish(); err != nil {
		t.Fatal(err)
	}
	if tot := h.Totals(); tot.MeanResponse != lat.Mean() || tot.Completed != lat.Count() {
		t.Fatalf("totals: mean response %v over %d, histogram %v over %d", tot.MeanResponse, tot.Completed, lat.Mean(), lat.Count())
	}
}
