package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"hierctl/internal/chaos"
	"hierctl/internal/cluster"
	"hierctl/internal/controller"
	"hierctl/internal/obs"
	"hierctl/internal/series"
	"hierctl/internal/workload"
)

func seriesIdentical(t *testing.T, name string, a, b *series.Series) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: nil mismatch", name)
	}
	if a == nil {
		return
	}
	if a.Len() != b.Len() {
		t.Fatalf("%s: length %d vs %d", name, a.Len(), b.Len())
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("%s: value %d diverged: %v vs %v", name, i, a.Values[i], b.Values[i])
		}
	}
}

// recordsIdentical compares two trace-mode records: every scalar and
// every series.
func recordsIdentical(t *testing.T, batch, online *Record) {
	t.Helper()
	scalarsIdentical(t, batch, online)
	seriesIdentical(t, "Trace", batch.Trace, online.Trace)
	seriesIdentical(t, "PredictedL1", batch.PredictedL1, online.PredictedL1)
	seriesIdentical(t, "ActualL1", batch.ActualL1, online.ActualL1)
	seriesIdentical(t, "Operational", batch.Operational, online.Operational)
	seriesIdentical(t, "ResponseMean", batch.ResponseMean, online.ResponseMean)
	if len(batch.GammaModules) != len(online.GammaModules) {
		t.Fatalf("gamma series count %d vs %d", len(batch.GammaModules), len(online.GammaModules))
	}
	for i := range batch.GammaModules {
		seriesIdentical(t, "GammaModules", batch.GammaModules[i], online.GammaModules[i])
	}
	if len(batch.FreqByComputer) != len(online.FreqByComputer) {
		t.Fatalf("frequency series count %d vs %d", len(batch.FreqByComputer), len(online.FreqByComputer))
	}
	for name, s := range batch.FreqByComputer {
		seriesIdentical(t, "FreqByComputer["+name+"]", s, online.FreqByComputer[name])
	}
}

// scalarsIdentical compares everything a record carries besides its
// series — all a streaming session's record has.
func scalarsIdentical(t *testing.T, batch, online *Record) {
	t.Helper()
	if batch.Completed != online.Completed || batch.Dropped != online.Dropped {
		t.Errorf("requests diverged: (%d, %d) vs (%d, %d)", batch.Completed, batch.Dropped, online.Completed, online.Dropped)
	}
	if batch.Energy != online.Energy {
		t.Errorf("energy diverged: %v vs %v", batch.Energy, online.Energy)
	}
	if batch.Switches != online.Switches || batch.Misroutes != online.Misroutes {
		t.Errorf("switches/misroutes diverged: (%d, %d) vs (%d, %d)", batch.Switches, batch.Misroutes, online.Switches, online.Misroutes)
	}
	if batch.ViolationFrac != online.ViolationFrac {
		t.Errorf("violation fraction diverged: %v vs %v", batch.ViolationFrac, online.ViolationFrac)
	}
	if batch.MeanResponse() != online.MeanResponse() {
		t.Errorf("mean response diverged: %v vs %v", batch.MeanResponse(), online.MeanResponse())
	}
	if batch.ResponseP50 != online.ResponseP50 || batch.ResponseP95 != online.ResponseP95 ||
		batch.ResponseP99 != online.ResponseP99 || batch.ResponseMax != online.ResponseMax {
		t.Error("latency percentiles diverged")
	}
	if batch.L0Explored != online.L0Explored || batch.L1Explored != online.L1Explored || batch.L2Explored != online.L2Explored {
		t.Error("explored counts diverged")
	}
	if batch.L0Decisions != online.L0Decisions || batch.L1Decisions != online.L1Decisions || batch.L2Decisions != online.L2Decisions {
		t.Error("decision counts diverged")
	}
}

// TestStreamingSessionMatchesBatchRun pins the online engine to the batch
// one: a session that never sees the trace — only the streamed counts plus
// the same calibration prefix the batch run tunes on — must take the batch
// run's decisions bin for bin (α, γ, frequencies, mean response and
// operational count: what the series sampled, and more) and finish with
// its totals bit for bit, while recording no series. The batch side is the
// trace-mode session Manager.Run is. Both sessions run on one Manager
// under a failure plan, which covers the event-calendar ordering and must
// show: computer (0,1), the one module 0 keeps on at this load, is on
// before its failure and off between the failure and its repair.
func TestStreamingSessionMatchesBatchRun(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{
		moduleOf("M1", 2), moduleOf("M2", 2),
	}}
	trace := series.New(0, 30, 60)
	for i := range trace.Values {
		trace.Values[i] = 900 + 600*math.Sin(float64(i)/5)
	}
	const failAt, repairAt = 600, 1200
	plan := []workload.FailureEvent{
		{At: failAt, Module: 0, Comp: 1},
		{At: repairAt, Module: 0, Comp: 1, Repair: true},
	}

	mgr, err := NewManager(spec, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	batchSess, err := mgr.NewSession(testStore(t), SessionConfig{Trace: trace, Failures: plan})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]BinDecision, 0, trace.Len())
	for _, count := range trace.Values {
		dec, err := batchSess.ObserveBin(count)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, dec)
	}
	batch, err := batchSess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if batch.ResponseMean.Len() != trace.Len() || batch.Operational.Len() == 0 || batch.Trace != trace {
		t.Fatal("trace-mode session recorded no series")
	}
	for _, dec := range want {
		md := dec.Modules[0]
		switch on := md.Alpha[1] || md.FreqIdx[1] != -1; {
		case dec.Time == failAt && !on:
			t.Errorf("bin %d (t = %v s): computer (0,1) is off before its failure; the plan tests nothing", dec.Bin, dec.Time)
		case dec.Time > failAt && dec.Time <= repairAt && on:
			t.Errorf("bin %d (t = %v s): failed computer (0,1) has α %v, frequency index %d; want off",
				dec.Bin, dec.Time, md.Alpha[1], md.FreqIdx[1])
		}
	}

	prefix := int(float64(trace.Len()) * TunePrefixFrac)
	sess, err := mgr.NewSession(testStore(t), SessionConfig{
		BinSeconds:  trace.Step,
		Start:       trace.Start,
		Calibration: trace.Values[:prefix],
		Failures:    plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	for bin, count := range trace.Values {
		got, err := sess.ObserveBin(count)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[bin]) {
			t.Fatalf("bin %d decision diverged:\nbatch  %+v\nonline %+v", bin, want[bin], got)
		}
	}
	online, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	scalarsIdentical(t, batch, online)
	if online.Trace != nil || online.PredictedL1 != nil || online.ActualL1 != nil || online.Operational != nil ||
		online.ResponseMean != nil || online.GammaModules != nil || online.FreqByComputer != nil {
		t.Errorf("streaming session recorded series: %+v", online)
	}
}

func TestSessionBinDecisionShape(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{
		moduleOf("M1", 2), moduleOf("M2", 2),
	}}
	mgr, err := NewManager(spec, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := mgr.NewSession(testStore(t), SessionConfig{BinSeconds: 30})
	if err != nil {
		t.Fatal(err)
	}
	var dec BinDecision
	for bin := 0; bin < 8; bin++ {
		dec, err = sess.ObserveBin(1200)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Bin != bin {
			t.Fatalf("bin index %d, want %d", dec.Bin, bin)
		}
	}
	if dec.Time != 8*30 {
		t.Errorf("decision time %v, want 240", dec.Time)
	}
	if len(dec.Modules) != 2 {
		t.Fatalf("module decisions %d, want 2", len(dec.Modules))
	}
	if len(dec.GammaModules) != 2 {
		t.Fatalf("cluster shares %d, want 2 (L2 active)", len(dec.GammaModules))
	}
	if sum := dec.GammaModules[0] + dec.GammaModules[1]; math.Abs(sum-1) > 1e-9 {
		t.Errorf("Σγ_i = %v, want 1", sum)
	}
	for i, md := range dec.Modules {
		if len(md.Alpha) != 2 || len(md.Gamma) != 2 || len(md.FreqIdx) != 2 || len(md.FreqHz) != 2 {
			t.Fatalf("module %d decision lengths: %+v", i, md)
		}
		for j := range md.FreqIdx {
			on := md.FreqIdx[j] >= 0
			if on != (md.FreqHz[j] > 0) {
				t.Errorf("module %d computer %d: idx %d vs hz %v", i, j, md.FreqIdx[j], md.FreqHz[j])
			}
		}
	}
	if dec.Operational < 1 {
		t.Error("no operational computers under load")
	}
	bins, steps, simTime := sess.Progress()
	if bins != 8 || steps != 8 {
		t.Errorf("progress (%d, %d), want (8, 8)", bins, steps)
	}
	if simTime <= 0 {
		t.Error("sim time not advancing")
	}
	if _, err := sess.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ObserveBin(100); err == nil {
		t.Error("observe after finish: want error")
	}
	if _, err := sess.Finish(); err == nil {
		t.Error("double finish: want error")
	}
}

func TestSessionValidation(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2)}}
	mgr, err := NewManager(spec, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	store := testStore(t)
	if _, err := mgr.NewSession(nil, SessionConfig{BinSeconds: 30}); err == nil {
		t.Error("nil store: want error")
	}
	if _, err := mgr.NewSession(store, SessionConfig{BinSeconds: 45}); err == nil {
		t.Error("misaligned bin width: want error")
	}
	if _, err := mgr.NewSession(store, SessionConfig{}); err == nil {
		t.Error("zero bin width and no trace: want error")
	}

	oracleCfg := fastConfig()
	oracleCfg.OracleForecast = true
	oracleMgr, err := NewManager(spec, oracleCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oracleMgr.NewSession(store, SessionConfig{BinSeconds: 30}); err == nil {
		t.Error("oracle without trace: want error")
	}

	// A session primed with a trace refuses to run past it.
	sess, err := mgr.NewSession(store, SessionConfig{Trace: steadyTrace(2, 100)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sess.ObserveBin(100); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.ObserveBin(100); err == nil {
		t.Error("observe past the trace: want error")
	}
}

// TestManagerWithArtifactsSkipsLearning verifies a manager built through
// the store that holds another's artifacts learns nothing, shares the
// learned objects and decides identically.
func TestManagerWithArtifactsSkipsLearning(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{
		moduleOf("M1", 2), moduleOf("M2", 2),
	}}
	cfg := fastConfig()
	store := NewArtifactStore()
	first, err := store.NewManager(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	art := first.Artifacts()
	if len(art.GMaps) == 0 {
		t.Fatal("no gmaps retained")
	}
	if len(art.Trees) == 0 {
		t.Fatal("no module trees retained (multi-module cluster)")
	}
	second, err := store.NewManager(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.GMaps.Learns != 1 || st.Trees.Learns != 1 {
		t.Errorf("store learned %+v, want one map and one tree", st)
	}
	for key, g := range art.GMaps {
		if second.artifacts.GMaps[key] != g {
			t.Error("gmap relearned despite supplied artifact")
		}
	}
	for key, jt := range art.Trees {
		if second.artifacts.Trees[key] != jt {
			t.Error("module tree relearned despite supplied artifact")
		}
	}
	trace := steadyTrace(20, 900)
	a, err := first.Run(testStore(t), SessionConfig{Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	b, err := second.Run(testStore(t), SessionConfig{Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	recordsIdentical(t, a, b)
}

// TestManagerSessionsAreIndependent pins the split between a Manager, which
// holds what was learned, and a Session, which owns everything that changes
// while it runs: the controllers, the estimators and their scratch, and the
// failure and chaos plans it runs under. A Manager's second Run must equal a
// fresh Manager's first, and two streaming sessions of one Manager, stepped
// alternately, must decide bin for bin as two Managers' sessions do — over
// different loads, and under different plans: one fails a computer, the
// other has a decision budget no search fits in, and only the budgeted one
// degrades. The trace varies, so the bands and the ĉ filters move and any
// state carried between sessions shows.
func TestManagerSessionsAreIndependent(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2), moduleOf("M2", 2)}}
	trace := series.New(0, 30, 60)
	for i := range trace.Values {
		trace.Values[i] = 900 + 600*math.Sin(float64(i)/5)
	}
	newManager := func() *Manager {
		m, err := NewManager(spec, fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	run := func(m *Manager) *Record {
		rec, err := m.Run(testStore(t), SessionConfig{Trace: trace})
		if err != nil {
			t.Fatal(err)
		}
		rec.LearnTime, rec.DecideTime = 0, 0
		return rec
	}

	shared := newManager()
	run(shared)
	second, fresh := run(shared), run(newManager())
	recordsIdentical(t, fresh, second)
	if !reflect.DeepEqual(fresh, second) {
		t.Errorf("second run diverges from a fresh manager's\nfresh:  %+v\nsecond: %+v", fresh, second)
	}

	prefix := int(float64(trace.Len()) * TunePrefixFrac)
	base := SessionConfig{BinSeconds: trace.Step, Calibration: trace.Values[:prefix]}
	failing, budgeted := base, base
	failing.Failures = []workload.FailureEvent{
		{At: 600, Module: 0, Comp: 1},
		{At: 1200, Module: 0, Comp: 1, Repair: true},
	}
	budgeted.Chaos = chaos.Plan{DecisionBudget: 1}
	forward := func(bin int) float64 { return trace.Values[bin] }
	reversed := func(bin int) float64 { return trace.Values[trace.Len()-1-bin] / 2 }
	twinSessions(t, newManager, [2]SessionConfig{base, base}, [2]func(int) float64{forward, reversed}, trace.Len())
	planned := twinSessions(t, newManager, [2]SessionConfig{failing, budgeted}, [2]func(int) float64{forward, forward}, trace.Len())
	if planned[0].DegradedTicks != 0 || planned[1].DegradedTicks == 0 {
		t.Errorf("degraded ticks %d and %d, want none under the failure plan and some under the budget",
			planned[0].DegradedTicks, planned[1].DegradedTicks)
	}
}

// twinSessions opens two sessions of one Manager, one under each of scs,
// and beside each a twin on a Manager of its own under the same
// SessionConfig. It steps them alternately for bins bins, session p on
// loads[p], failing t unless each decides bin for bin and finishes as its
// twin, and returns the two shared-Manager sessions' records.
func twinSessions(t *testing.T, newManager func() *Manager, scs [2]SessionConfig, loads [2]func(bin int) float64, bins int) [2]*Record {
	t.Helper()
	open := func(m *Manager, sc SessionConfig) *Session {
		s, err := m.NewSession(testStore(t), sc)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	one := newManager()
	// Each pair is a session of the shared Manager and its twin.
	var pairs [2][2]*Session
	for p, sc := range scs {
		pairs[p] = [2]*Session{open(one, sc), open(newManager(), sc)}
	}
	for bin := 0; bin < bins; bin++ {
		for p, pair := range pairs {
			count := loads[p](bin)
			got, err := pair[0].ObserveBin(count)
			if err != nil {
				t.Fatal(err)
			}
			want, err := pair[1].ObserveBin(count)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("session %d, bin %d: shared manager decided\n%+v\nwant %+v", p, bin, got, want)
			}
		}
	}
	var recs [2]*Record
	for p, pair := range pairs {
		got, err := pair[0].Finish()
		if err != nil {
			t.Fatal(err)
		}
		want, err := pair[1].Finish()
		if err != nil {
			t.Fatal(err)
		}
		scalarsIdentical(t, want, got)
		if t.Failed() {
			t.Fatalf("session %d finished differently on the shared manager", p)
		}
		recs[p] = got
	}
	return recs
}

// TestManagerSessionsStepConcurrently pins that what two sessions of one
// Manager share — the learned maps and trees — is only read while they
// run: two streaming sessions of one Manager (no recorder), under
// different loads and plans, stepped at once on two goroutines, decide bin
// for bin and finish as each one's twin stepped alone. Under -race it
// fails on any write to the shared artifacts.
//
//hpm:pin sharing
func TestManagerSessionsStepConcurrently(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{moduleOf("M1", 2), moduleOf("M2", 2)}}
	mgr, err := NewManager(spec, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	const bins = 40
	loads := [2]func(bin int) float64{
		func(bin int) float64 { return 900 + 600*math.Sin(float64(bin)/5) },
		func(bin int) float64 { return 450 + 300*math.Cos(float64(bin)/3) },
	}
	scs := [2]SessionConfig{
		{BinSeconds: 30, Failures: []workload.FailureEvent{{At: 300, Module: 1, Comp: 0}}},
		{BinSeconds: 30, Chaos: chaos.Plan{DecisionBudget: 64}},
	}
	// step runs session p through every bin, keeping its decisions and
	// record; it reports failures as errors, so that it may run off the
	// test's goroutine.
	type result struct {
		decs []BinDecision
		rec  *Record
		err  error
	}
	step := func(p int) (res result) {
		s, err := mgr.NewSession(testStore(t), scs[p])
		if err != nil {
			return result{err: err}
		}
		for bin := 0; bin < bins; bin++ {
			dec, err := s.ObserveBin(loads[p](bin))
			if err != nil {
				return result{err: err}
			}
			res.decs = append(res.decs, dec)
		}
		res.rec, res.err = s.Finish()
		return res
	}
	var alone, together [2]result
	for p := range alone {
		alone[p] = step(p)
	}
	var wg sync.WaitGroup
	for p := range together {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[p] = step(p)
		}()
	}
	wg.Wait()
	for p := range together {
		want, got := alone[p], together[p]
		if want.err != nil || got.err != nil {
			t.Fatalf("session %d: alone %v, concurrently %v", p, want.err, got.err)
		}
		for bin := range want.decs {
			if !reflect.DeepEqual(got.decs[bin], want.decs[bin]) {
				t.Fatalf("session %d, bin %d: concurrently decided\n%+v\nwant %+v", p, bin, got.decs[bin], want.decs[bin])
			}
		}
		scalarsIdentical(t, want.rec, got.rec)
	}
}

// TestSessionsShareScratch: sessions stepped on one goroutine may share
// one controller.Scratch, whatever their shapes, and decide bit for bit as
// each does alone in its own. Three streaming sessions — two computers,
// one four-computer module, four modules of four — under failure plans and
// a DecisionBudget small enough to trip, are stepped interleaved through
// StepBinIn in one Scratch, the largest first; each must match its twin
// stepped alone through StepBin: decisions every bin, flight records
// (latency zeroed) and the finished record. The fleet's shard-level twin
// is TestShardScratchSharedAcrossShapes.
//
//hpm:pin sharing
func TestSessionsShareScratch(t *testing.T) {
	const bins = 32
	specs := []cluster.Spec{
		{Modules: []cluster.ModuleSpec{moduleOf("M1", 4), moduleOf("M2", 4), moduleOf("M3", 4), moduleOf("M4", 4)}},
		{Modules: []cluster.ModuleSpec{moduleOf("M1", 4)}},
		{Modules: []cluster.ModuleSpec{moduleOf("M1", 2)}},
	}
	type run struct {
		sess *Session
		rec  *obs.Recorder
		decs []BinDecision
	}
	// open starts session p's run, recording into a recorder of its own.
	mgrs := make([]*Manager, len(specs))
	open := func(p int) *run {
		rec, err := obs.NewRecorder(4096)
		if err != nil {
			t.Fatal(err)
		}
		mgrs[p].SetRecorder(rec)
		s, err := mgrs[p].NewSession(testStore(t), SessionConfig{
			BinSeconds: 30,
			Failures:   []workload.FailureEvent{{At: 200, Module: 0, Comp: 1}, {At: 500, Module: 0, Comp: 1, Repair: true}},
			Chaos:      chaos.Plan{DecisionBudget: 48},
		})
		if err != nil {
			t.Fatal(err)
		}
		return &run{sess: s, rec: rec}
	}
	load := func(p, bin int) float64 {
		return math.Round(float64(specs[p].Computers()) * (300 + 250*math.Sin(float64(bin+5*p)/4)))
	}
	alone, shared := make([]*run, len(specs)), make([]*run, len(specs))
	for p, spec := range specs {
		mgr, err := NewManager(spec, fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		mgrs[p] = mgr
		alone[p] = open(p)
		for bin := range bins {
			dec, err := alone[p].sess.ObserveBin(load(p, bin))
			if err != nil {
				t.Fatal(err)
			}
			alone[p].decs = append(alone[p].decs, dec)
		}
		shared[p] = open(p)
	}
	sc := new(controller.Scratch)
	for bin := range bins {
		for p, r := range shared {
			if err := r.sess.StepBinIn(sc, nil, load(p, bin)); err != nil {
				t.Fatal(err)
			}
			r.decs = append(r.decs, r.sess.Decision())
		}
	}
	degraded := 0
	for p := range specs {
		want, got := alone[p], shared[p]
		for bin := range bins {
			if !reflect.DeepEqual(got.decs[bin], want.decs[bin]) {
				t.Fatalf("session %d, bin %d: in a shared scratch decided\n%+v\nalone %+v", p, bin, got.decs[bin], want.decs[bin])
			}
		}
		flights := [2][]obs.Record{want.rec.Window(nil, 0), got.rec.Window(nil, 0)}
		for _, recs := range flights {
			for i := range recs {
				recs[i].DecideNs = 0
			}
		}
		if !reflect.DeepEqual(flights[0], flights[1]) {
			t.Fatalf("session %d: flight records differ in a shared scratch", p)
		}
		wantRec, err := want.sess.Finish()
		if err != nil {
			t.Fatal(err)
		}
		gotRec, err := got.sess.Finish()
		if err != nil {
			t.Fatal(err)
		}
		scalarsIdentical(t, wantRec, gotRec)
		degraded += gotRec.Totals.DegradedTicks
	}
	if degraded == 0 {
		t.Fatal("no decision tripped the budget: the test no longer covers a trip in a shared scratch")
	}
}
