package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"hierctl"
	"hierctl/internal/cluster"
	"hierctl/internal/controller"
	"hierctl/internal/forecast"
	"hierctl/internal/metrics"
	"hierctl/internal/obs"
	"hierctl/internal/workload"
)

const (
	// replayShare is the leading share of a workload's rounds the traced
	// pass replays in process (the two cheap workloads replay everything,
	// which makes their replay the full twin of the daemon run).
	replayShare = 0.10
	// synthRounds is how many leading rounds get per-tenant controller
	// spans synthesised from the flight recorders; the rest only feed the
	// per-layer sums, which keeps the trace file a few MB.
	synthRounds = 3
	// ledgerTenants × ledgerBins is the single-threaded sample behind the
	// core/controller/engine ledger of one tenant shape.
	ledgerTenants = 4
	ledgerBins    = 1024
	// leafLoops is the iteration count of the leaf micro-loops.
	leafLoops = 200000
)

// fullReplay reports whether the traced pass replays a workload's whole
// input: the two workloads whose in-process twin costs about a second.
func fullReplay(sp spec) bool { return sp.mode != modeBatch }

// layerSet collects per-layer values by catalog name.
type layerSet map[string]float64

// levelSums accumulates the flight recorder's summary records per level.
type levelSums struct {
	decideNs [4]int64
	decides  [4]int64
	explored [4]int64
}

// summary reports whether a record carries a decision's own timing: tick
// and L0 records always do; L1 and L2 write one summary (Comp == -1,
// Module == -1) followed by per-computer / per-module detail rows that
// have none.
func summary(r obs.Record) bool {
	switch r.Level {
	case obs.LevelL1:
		return r.Comp == -1
	case obs.LevelL2:
		return r.Module == -1
	}
	return true
}

func (s *levelSums) add(recs []obs.Record) {
	for _, r := range recs {
		if !summary(r) || int(r.Level) >= len(s.decides) {
			continue
		}
		s.decideNs[r.Level] += r.DecideNs
		s.decides[r.Level]++
		s.explored[r.Level] += int64(r.Explored)
	}
}

// tracedPass measures one workload's layers in process and merges them
// with what the daemon run (res) showed from outside. It also closes the
// output check: a full replay's digests must equal the daemon's.
func tracedPass(ev *env, in *inputs, res *e2e, tr *tracer) (layerSet, []string, error) {
	ls := layerSet{}
	for _, m := range perLayer {
		ls[m.name] = 0
	}
	rp, err := replay(ev, in, res, tr, ls)
	if err != nil {
		return nil, nil, err
	}
	if err := ledger(in, ls); err != nil {
		return nil, nil, err
	}
	if err := leaves(in, rp, ls); err != nil {
		return nil, nil, err
	}
	return ls, outside(in, res, rp, ls), nil
}

// replayStats is what the mirrored in-process replay hands to the other
// parts of the traced pass.
type replayStats struct {
	callUs       []float64 // wall of every fleet call, µs
	shards       int
	lastDecision *hierctl.BinDecision
}

// replay rebuilds the workload's tenants in a fleet configured like the
// daemon's and drives it with the same generated inputs in the same load
// shape — one goroutine per connection, each calling the fleet where the
// daemon's handler would — recording a span around every round and every
// fleet call. Rounds run in lockstep so the flight recorders can be read
// between them without perturbing a timed call.
func replay(ev *env, in *inputs, res *e2e, tr *tracer, ls layerSet) (*replayStats, error) {
	sp := in.sp
	f := hierctl.NewFleet(hierctl.FleetConfig{})
	defer f.Close()
	rp := &replayStats{shards: f.Stats().Shards}

	// Tenants are created like the daemon run creates them: in lockstep
	// over the connections, so placement is balanced the same way.
	createMs := make([]float64, sp.tenants)
	if err := lockstep(sp.tenants, func(c, t int) error {
		tc, err := tenantConfig(sp, in.seed, t)
		if err != nil {
			return err
		}
		id := tr.begin("fleet.CreateTenant", fmt.Sprintf("conn-%d", c), -1, -1)
		err = f.CreateTenant(tenantID(t), tc)
		createMs[t] = float64(tr.end(id).Nanoseconds()) / 1e6
		return err
	}); err != nil {
		return nil, fmt.Errorf("traced: %w", err)
	}
	ls["fleet.create_tenant_ms"] = median(createMs)

	// The rounds to replay: every connection's calls, phase after phase.
	calls := make([][]call, conns)
	for c := range calls {
		calls[c] = append(append(append([]call(nil), in.history[c]...), in.closed[c]...), in.open[c]...)
	}
	// One round is one batch call per connection, or for single observes
	// one pass over the connection's tenants.
	perRound := 1
	if sp.mode == modeRPC {
		lo, hi := partition(sp.tenants, 0)
		perRound = hi - lo
	}
	rounds := (len(calls[0]) + perRound - 1) / perRound
	if !fullReplay(sp) {
		rounds = max(2, int(float64(rounds)*replayShare))
	}

	// The first rounds run in lockstep — every connection's round ends at a
	// barrier, after which the flight recorders are drained into
	// synthesised controller spans without perturbing a timed call. They
	// double as warm-up: the timing sums come from the free-running rounds
	// after them, where every connection always has a call in flight, as
	// against the daemon.
	cursors := make([]uint64, sp.tenants)
	var entries, bins int
	var callWall, stepped time.Duration
	type out struct {
		spanID int
		wall   time.Duration
		us     []float64
		n, b   int
		dec    *hierctl.BinDecision
	}
	oneRound := func(c, r int, o *out) error {
		track := fmt.Sprintf("conn-%d", c)
		lo := min(r*perRound, len(calls[c]))
		hi := min(lo+perRound, len(calls[c]))
		o.spanID = tr.begin("round", track, -1, r)
		defer tr.end(o.spanID)
		for _, k := range calls[c][lo:hi] {
			d, dec, err := fleetCall(f, k, tr, track, o.spanID, r)
			if err != nil {
				return err
			}
			o.wall += d
			o.us = append(o.us, float64(d.Nanoseconds())/1e3)
			o.n += k.entries
			o.b += k.entries * k.bins
			if dec != nil {
				o.dec = dec
			}
		}
		return nil
	}
	// drive runs rounds [from, to) on every connection, either with a
	// barrier and a recorder drain after each round or free-running.
	drive := func(from, to int, lockstep bool) error {
		step := to - from
		if lockstep {
			step = 1
		}
		for r0 := from; r0 < to; r0 += step {
			outs := make([]out, conns)
			errs := make([]error, conns)
			decide0 := f.Stats().DecideSeconds
			var wg sync.WaitGroup
			for c := range calls {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for r := r0; r < r0+step && errs[c] == nil; r++ {
						errs[c] = oneRound(c, r, &outs[c])
					}
				}(c)
			}
			wg.Wait()
			for c := range outs {
				if errs[c] != nil {
					return fmt.Errorf("traced replay: %w", errs[c])
				}
				if outs[c].dec != nil {
					rp.lastDecision = outs[c].dec
				}
				if lockstep {
					lo, hi := partition(sp.tenants, c)
					if err := synthesise(f, tr, outs[c].spanID, fmt.Sprintf("conn-%d decide (synthesised)", c), r0, lo, hi, cursors); err != nil {
						return err
					}
					continue
				}
				callWall += outs[c].wall
				rp.callUs = append(rp.callUs, outs[c].us...)
				entries += outs[c].n
				bins += outs[c].b
			}
			if !lockstep {
				stepped += time.Duration((f.Stats().DecideSeconds - decide0) * float64(time.Second))
			}
		}
		return nil
	}

	warm := min(synthRounds, rounds/2)
	if sp.mode != modeRestart {
		if err := drive(0, warm, true); err != nil {
			return nil, err
		}
		if err := drive(warm, rounds, false); err != nil {
			return nil, err
		}
	} else {
		// restart-restore times the persistence half where the daemon run
		// restarts: on the fleet holding the history, with the history's
		// last round held back so the journal sees "append after a round".
		held := len(in.history[0]) - 1
		warm = min(warm, held)
		if err := drive(0, warm, true); err != nil {
			return nil, err
		}
		if err := drive(warm, held, false); err != nil {
			return nil, err
		}
		if err := persistence(ev, in, f, tr, ls, func() error { return drive(held, held+1, false) }); err != nil {
			return nil, err
		}
		if err := drive(held+1, rounds, false); err != nil {
			return nil, err
		}
	}

	ls["fleet.observe_batch_us_per_bin"] = float64(callWall.Nanoseconds()) / 1e3 * float64(rp.shards) / float64(conns) / float64(bins)
	ls["fleet.batch_self_us_per_entry"] = float64((callWall*time.Duration(rp.shards)/time.Duration(conns) - stepped).Nanoseconds()) / 1e3 / float64(entries)

	if fullReplay(sp) {
		// The full twin: every tenant's final state and close record must
		// be byte-identical to what the daemon served.
		for t := 0; t < sp.tenants; t++ {
			got, err := closeDigest(f, t)
			if err != nil {
				return nil, fmt.Errorf("traced: %w", err)
			}
			res.attempted++
			if got != res.tenantDigests[t] {
				res.fail(1, "decision digest of tenant %s differs from the full in-process twin", tenantID(t))
			}
		}
	}
	return rp, nil
}

// fleetCall makes the fleet call the daemon's handler would make for k,
// inside a span, and returns its wall time.
func fleetCall(f *hierctl.Fleet, k call, tr *tracer, track string, parent, round int) (time.Duration, *hierctl.BinDecision, error) {
	if k.wantBin >= 0 {
		var req observeReq
		if err := json.Unmarshal(k.body, &req); err != nil {
			return 0, nil, err
		}
		tenant := k.path[len("/v1/tenants/") : len(k.path)-len("/observe")]
		id := tr.begin("fleet.Observe", track, parent, round)
		dec, err := f.Observe(tenant, req.Count)
		d := tr.end(id)
		if err != nil {
			return 0, nil, err
		}
		return d, &dec, nil
	}
	var req batchReq
	if err := json.Unmarshal(k.body, &req); err != nil {
		return 0, nil, err
	}
	batch := make([]hierctl.BatchEntry, len(req.Entries))
	for i, e := range req.Entries {
		batch[i] = hierctl.BatchEntry{Tenant: e.Tenant, Counts: e.Counts}
	}
	id := tr.begin("fleet.ObserveBatch", track, parent, round)
	results, err := f.ObserveBatch(batch)
	d := tr.end(id)
	if err != nil {
		return 0, nil, err
	}
	for _, r := range results {
		if r.Err != nil || r.Applied != k.bins {
			return 0, nil, fmt.Errorf("tenant %s applied %d of %d bins: %v", r.Tenant, r.Applied, k.bins, r.Err)
		}
	}
	return d, nil, nil
}

// synthesise turns the flight-recorder records tenants [lo, hi) wrote
// during one round into controller.tick spans with controller.l0|l1|l2
// children. Their durations are the program's own DecideNs; their
// positions are not observable from outside, so they are laid out back to
// back from the round's start on a track of their own.
func synthesise(f *hierctl.Fleet, tr *tracer, parent int, track string, round, lo, hi int, cursors []uint64) error {
	at := tr.startOf(parent)
	for t := lo; t < hi; t++ {
		recs, next, err := f.TelemetrySince(tenantID(t), cursors[t])
		if err != nil {
			return fmt.Errorf("traced: %w", err)
		}
		cursors[t] = next
		// Controllers record during Decide, the engine records the tick
		// after it: a tick's children precede its tick record.
		var pending []obs.Record
		for _, r := range recs {
			if !summary(r) {
				continue
			}
			if r.Level != obs.LevelTick {
				pending = append(pending, r)
				continue
			}
			tick := tr.place("controller.tick", track, parent, round, at, time.Duration(r.DecideNs))
			child := at
			for _, p := range pending {
				tr.place("controller."+p.Level.String(), track, tick, round, child, time.Duration(p.DecideNs))
				child += time.Duration(p.DecideNs)
			}
			pending = pending[:0]
			at += time.Duration(r.DecideNs)
		}
	}
	return nil
}

// persistence times the fleet's persistence half on the restart-restore
// fleet, which holds the history minus one round: snapshot, restore into
// a fresh fleet, journal open (a full base), then — after lastRound
// applied one more round — an append and a compaction.
func persistence(ev *env, in *inputs, f *hierctl.Fleet, tr *tracer, ls layerSet, lastRound func() error) error {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	var snap bytes.Buffer
	id := tr.begin("fleet.Snapshot", "persist", -1, -1)
	err := f.Snapshot(&snap)
	ls["fleet.snapshot_ms"] = ms(tr.end(id))
	if err != nil {
		return fmt.Errorf("traced: snapshot: %w", err)
	}
	ls["fleet.snapshot_bytes"] = float64(snap.Len())

	fresh := hierctl.NewFleet(hierctl.FleetConfig{})
	id = tr.begin("fleet.Restore", "persist", -1, -1)
	err = fresh.Restore(bytes.NewReader(snap.Bytes()))
	restore := tr.end(id)
	fresh.Close()
	if err != nil {
		return fmt.Errorf("traced: restore: %w", err)
	}
	ls["fleet.restore_ms"] = ms(restore)
	history := in.sp.tenants * (in.sp.historyBins - in.sp.binsPerEntry)
	ls["fleet.restore_us_per_history_bin"] = float64(restore.Nanoseconds()) / 1e3 / float64(history)

	dir, err := os.MkdirTemp(ev.workDir, "traced-journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	id = tr.begin("fleet.OpenJournal", "persist", -1, -1)
	j, err := hierctl.OpenFleetJournal(f, filepath.Join(dir, "fleet.journal"), hierctl.FleetJournalConfig{})
	ls["fleet.journal_open_ms"] = ms(tr.end(id))
	if err != nil {
		return fmt.Errorf("traced: open journal: %w", err)
	}
	defer j.Close()
	if err := lastRound(); err != nil {
		return err
	}
	id = tr.begin("fleet.Journal.Append", "persist", -1, -1)
	err = j.Append()
	ls["fleet.journal_append_ms"] = ms(tr.end(id))
	if err != nil {
		return fmt.Errorf("traced: journal append: %w", err)
	}
	ls["fleet.journal_append_bytes"] = float64(j.Stats().TailBytes)
	id = tr.begin("fleet.Journal.Compact", "persist", -1, -1)
	err = j.Compact()
	ls["fleet.journal_compact_ms"] = ms(tr.end(id))
	if err != nil {
		return fmt.Errorf("traced: journal compact: %w", err)
	}
	return j.Close()
}

// ledger costs one control tick of the workload's tenant shape outside
// the fleet, single threaded under GOMAXPROCS(1): Session.ObserveBin with
// the recorder on and off, the controllers' own decide times from the
// recorder, and shadow copies of the request feed and the plant fed the
// same counts. By construction decide + feed + mechanics = the traced
// bin. The same tenant behind a fleet's shard hop is timed after it.
func ledger(in *inputs, ls layerSet) error {
	sp := in.sp
	var a ledgerSums
	var hopNs []float64
	for t := 0; t < min(ledgerTenants, sp.tenants); t++ {
		tc, err := tenantConfig(sp, in.seed, t)
		if err != nil {
			return err
		}
		counts := in.counts[t][:min(ledgerBins, len(in.counts[t]))]
		if err := a.tenant(tc, counts); err != nil {
			return fmt.Errorf("ledger: %w", err)
		}

		f := hierctl.NewFleet(hierctl.FleetConfig{})
		if err := f.CreateTenant(tenantID(t), tc); err != nil {
			f.Close()
			return fmt.Errorf("ledger: %w", err)
		}
		hop := make([]float64, len(counts))
		for i, c := range counts {
			from := time.Now()
			if _, err := f.Observe(tenantID(t), c); err != nil {
				f.Close()
				return fmt.Errorf("ledger: %w", err)
			}
			hop[i] = float64(time.Since(from).Nanoseconds())
		}
		f.Close()
		hopNs = append(hopNs, median(hop))
	}

	bins := float64(a.bins)
	traced := a.onNs / bins / 1e3
	untraced := a.offNs / bins / 1e3
	decide := float64(a.levels.decideNs[obs.LevelTick]) / bins / 1e3
	feedShare := a.feedNs / bins / 1e3
	ls["core.new_manager_ms"] = median(a.newManagerMs)
	ls["core.observe_bin_traced_us"] = traced
	ls["core.observe_bin_us"] = untraced
	ls["core.allocs_per_bin"] = float64(a.allocs) / bins
	ls["core.bytes_per_bin"] = float64(a.heapBytes) / bins
	ls["obs.recorder_overhead_pct"] = (traced/untraced - 1) * 100
	ls["controller.tick_decide_us_per_bin"] = decide
	ls["engine.mechanics_us_per_bin"] = traced - decide - feedShare
	for lvl, key := range map[obs.Level]string{obs.LevelL0: "l0", obs.LevelL1: "l1", obs.LevelL2: "l2"} {
		ls["controller."+key+"_us_per_bin"] = float64(a.levels.decideNs[lvl]) / bins / 1e3
		ls["controller."+key+"_decides_per_bin"] = float64(a.levels.decides[lvl]) / bins
		ls["llc.explored_per_bin_"+key] = float64(a.levels.explored[lvl]) / bins
	}
	if n := a.levels.explored[obs.LevelL0]; n > 0 {
		ls["llc.ns_per_explored"] = float64(a.levels.decideNs[obs.LevelL0]) / float64(n)
	}
	if a.reqs > 0 {
		ls["workload.feed_push_ns_per_req"] = a.feedNs / float64(a.reqs)
		ls["cluster.dispatch_ns_per_req"] = a.dispatchNs / float64(a.reqs)
		ls["cluster.advance_ns_per_req"] = a.advanceNs / float64(a.reqs)
	}
	ls["fleet.observe_us"] = median(hopNs) / 1e3
	ls["fleet.shard_hop_us"] = (median(hopNs) - median(a.onMedianNs)) / 1e3
	return nil
}

// ledgerSums accumulates the single-threaded ledger over its tenants.
type ledgerSums struct {
	bins, reqs                                 int
	onNs, offNs, feedNs, dispatchNs, advanceNs float64
	onMedianNs, newManagerMs                   []float64
	levels                                     levelSums
	allocs, heapBytes                          uint64
}

// tenant runs one tenant's ledger sample over counts.
func (a *ledgerSums) tenant(tc hierctl.TenantConfig, counts []float64) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a.bins += len(counts)
	session := func(rec *hierctl.TelemetryRecorder) (*hierctl.Session, error) {
		from := time.Now()
		mgr, err := hierctl.NewManager(tc.Spec, tc.Core)
		if err != nil {
			return nil, err
		}
		a.newManagerMs = append(a.newManagerMs, float64(time.Since(from).Nanoseconds())/1e6)
		mgr.SetRecorder(rec)
		store, err := hierctl.NewStore(tc.StoreSeed, tc.Store)
		if err != nil {
			return nil, err
		}
		return mgr.NewSession(store, hierctl.SessionConfig{BinSeconds: tc.BinSeconds})
	}

	// Recorder on: per-bin wall and the controllers' decide records.
	rec, err := hierctl.NewTelemetryRecorder(tc.TelemetryRecords)
	if err != nil {
		return err
	}
	sess, err := session(rec)
	if err != nil {
		return err
	}
	var cursor uint64
	var recs []obs.Record
	perBin := make([]float64, len(counts))
	for i, c := range counts {
		from := time.Now()
		if _, err := sess.ObserveBin(c); err != nil {
			return err
		}
		perBin[i] = float64(time.Since(from).Nanoseconds())
		a.onNs += perBin[i]
		recs, cursor = rec.Since(recs[:0], cursor)
		a.levels.add(recs)
	}
	a.onMedianNs = append(a.onMedianNs, median(perBin))

	// Recorder off: the untraced bin and its allocations.
	if sess, err = session(nil); err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	from := time.Now()
	for _, c := range counts {
		if _, err := sess.ObserveBin(c); err != nil {
			return err
		}
	}
	a.offNs += float64(time.Since(from).Nanoseconds())
	runtime.ReadMemStats(&after)
	a.allocs += after.Mallocs - before.Mallocs
	a.heapBytes += after.TotalAlloc - before.TotalAlloc

	// Shadow feed and plant: the same store, seed and counts; every
	// computer on at full frequency, load split by capacity.
	store, err := hierctl.NewStore(tc.StoreSeed, tc.Store)
	if err != nil {
		return err
	}
	feed, err := workload.NewFeed(0, tc.BinSeconds, store, rand.New(rand.NewSource(tc.StoreSeed)))
	if err != nil {
		return err
	}
	plant, gammaModules, gammaComputers, err := shadowPlant(tc.Spec, tc.StoreSeed)
	if err != nil {
		return err
	}
	for _, c := range counts {
		from := time.Now()
		_, reqs := feed.Push(c)
		a.feedNs += float64(time.Since(from).Nanoseconds())
		a.reqs += len(reqs)
		from = time.Now()
		if err := plant.Dispatch(reqs, gammaModules, gammaComputers); err != nil {
			return err
		}
		a.dispatchNs += float64(time.Since(from).Nanoseconds())
		from = time.Now()
		if err := plant.Advance(plant.Now() + tc.BinSeconds); err != nil {
			return err
		}
		a.advanceNs += float64(time.Since(from).Nanoseconds())
		for i := 0; i < plant.Modules(); i++ {
			// Harvest, as the engine does each tick, so the plant's
			// interval state stays bounded.
			if _, _, err := plant.ModuleIntervalStats(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// shadowPlant boots a plant like the engine does — every computer on at
// its top frequency, advanced past the longest boot delay — and returns
// it with a capacity-proportional load split.
func shadowPlant(spec hierctl.ClusterSpec, seed int64) (*cluster.Plant, []float64, [][]float64, error) {
	plant, err := cluster.NewPlant(spec, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, nil, nil, err
	}
	gammaModules := make([]float64, len(spec.Modules))
	gammaComputers := make([][]float64, len(spec.Modules))
	preroll := 0.0
	for i, m := range spec.Modules {
		gammaComputers[i] = make([]float64, len(m.Computers))
		for j, c := range m.Computers {
			if err := plant.PowerOn(i, j); err != nil {
				return nil, nil, nil, err
			}
			if err := plant.SetFrequency(i, j, len(c.FrequenciesHz)-1); err != nil {
				return nil, nil, nil, err
			}
			gammaComputers[i][j] = c.SpeedFactor
			gammaModules[i] += c.SpeedFactor
			preroll = max(preroll, c.BootDelaySeconds)
		}
	}
	if err := plant.Advance(preroll); err != nil {
		return nil, nil, nil, err
	}
	return plant, gammaModules, gammaComputers, nil
}

// leaves times the leaf layers in tight loops and the JSON proxies over
// the run's own bodies.
func leaves(in *inputs, rp *replayStats, ls layerSet) error {
	perOp := func(n int, fn func(i int)) float64 {
		from := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return float64(time.Since(from).Nanoseconds()) / float64(n)
	}

	// approx: one abstraction-map probe on a map learned on the fast grid.
	tc, err := tenantConfig(in.sp, in.seed, 0)
	if err != nil {
		return err
	}
	gmap, err := controller.LearnGMap(tc.Core.L0, tc.Spec.Modules[0].Computers[0], tc.Core.GMap)
	if err != nil {
		return fmt.Errorf("leaves: %w", err)
	}
	scratch := make([]float64, 4)
	var probeErr error
	ls["approx.gmap_probe_ns"] = perOp(leafLoops, func(i int) {
		if _, _, _, _, err := gmap.EvaluateInto(scratch, float64(i%int(tc.Core.GMap.QMax)), float64(i%int(tc.Core.GMap.LambdaMax)), tc.Core.DefaultCHat); err != nil {
			probeErr = err
		}
	})
	if probeErr != nil {
		return fmt.Errorf("leaves: gmap probe: %w", probeErr)
	}

	// forecast: one Kalman observe with the untuned prior.
	kalman, err := forecast.NewKalman(1, 0.1, 10)
	if err != nil {
		return err
	}
	series := in.counts[0]
	ls["forecast.kalman_observe_ns"] = perOp(leafLoops, func(i int) { kalman.Observe(series[i%len(series)]) })

	// obs: one flight-recorder write.
	rec, err := obs.NewRecorder(daemonTelemetryRecords)
	if err != nil {
		return err
	}
	ls["obs.record_ns"] = perOp(leafLoops, func(i int) {
		rec.Record(obs.Record{Level: obs.LevelL0, Module: 0, Comp: int16(i & 3), FreqIdx: 2, Explored: 9, DecideNs: 1500})
	})

	// metrics: the text exposition of a registry shaped like the daemon's
	// with 512 tenants.
	perK, err := writeTextPerKSeries(512)
	if err != nil {
		return err
	}
	ls["metrics.write_text_ms_per_kseries"] = perK

	// JSON proxies: encoding/json over the run's own bodies with the
	// mirrored wire structs — the daemon's decode of a request and encode
	// of its reply, per request.
	sample := in.closed[0][:min(64, len(in.closed[0]))]
	var decodeNs, encodeNs float64
	for _, k := range sample {
		var reply any
		from := time.Now()
		if k.wantBin >= 0 {
			var req observeReq
			err = json.NewDecoder(bytes.NewReader(k.body)).Decode(&req)
			if rp.lastDecision != nil {
				reply = toDecisionDTO(*rp.lastDecision)
			}
		} else {
			var req batchReq
			err = json.NewDecoder(bytes.NewReader(k.body)).Decode(&req)
			out := batchResp{Applied: k.entries * k.bins, Results: make([]batchEntryResp, len(req.Entries))}
			for i, e := range req.Entries {
				out.Results[i] = batchEntryResp{Tenant: e.Tenant, Applied: len(e.Counts)}
			}
			reply = out
		}
		decodeNs += float64(time.Since(from).Nanoseconds())
		if err != nil {
			return fmt.Errorf("leaves: json proxy: %w", err)
		}
		from = time.Now()
		if err := json.NewEncoder(io.Discard).Encode(reply); err != nil {
			return fmt.Errorf("leaves: json proxy: %w", err)
		}
		encodeNs += float64(time.Since(from).Nanoseconds())
	}
	ls["hpmserve.json_decode_proxy_us"] = decodeNs / float64(len(sample)) / 1e3
	ls["hpmserve.json_encode_proxy_us"] = encodeNs / float64(len(sample)) / 1e3
	return nil
}

// writeTextPerKSeries renders a registry holding the daemon's six
// tenant-labelled families for the given tenant count and returns the
// milliseconds WriteText takes per thousand sample lines.
func writeTextPerKSeries(tenants int) (float64, error) {
	reg := metrics.NewRegistry()
	bins, err := reg.Counter("hpmserve_tenant_bins", "Observation bins ingested per tenant.", "tenant")
	if err != nil {
		return 0, err
	}
	operational, err := reg.Gauge("hpmserve_tenant_operational", "Operational computers per tenant.", "tenant")
	if err != nil {
		return 0, err
	}
	latency, err := reg.Histogram("hpmserve_observe_seconds", "Wall-clock latency of /observe calls per tenant.",
		[]float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10}, "tenant")
	if err != nil {
		return 0, err
	}
	qos, err := reg.Counter("hpmserve_qos_violations_total", "Control periods over the response target, per tenant.", "tenant")
	if err != nil {
		return 0, err
	}
	degraded, err := reg.Counter("hpmserve_degraded_ticks_total", "Control periods decided through the fallback, per tenant.", "tenant")
	if err != nil {
		return 0, err
	}
	stale, err := reg.Counter("hpmserve_stale_observations_total", "Module observations held at the last good value, per tenant.", "tenant")
	if err != nil {
		return 0, err
	}
	for t := 0; t < tenants; t++ {
		id := tenantID(t)
		bins.With(id).SetTotal(float64(100 + t))
		operational.With(id).Set(2)
		latency.With(id).Observe(2e-4)
		qos.With(id).Inc()
		degraded.With(id).Inc()
		stale.With(id).Inc()
	}
	var buf bytes.Buffer
	const renders = 20
	took := make([]float64, renders)
	for i := range took {
		buf.Reset()
		from := time.Now()
		if err := reg.WriteText(&buf); err != nil {
			return 0, err
		}
		took[i] = float64(time.Since(from).Nanoseconds()) / 1e6
	}
	lines := 0
	for _, l := range bytes.Split(buf.Bytes(), []byte{'\n'}) {
		if len(l) > 0 && l[0] != '#' {
			lines++
		}
	}
	return median(took) / (float64(lines) / 1000), nil
}

// outside fills in the layer metrics read from the daemon run and returns
// the two ledger lines: what one traced bin is made of, and how the
// in-process costs add up to the client's median.
func outside(in *inputs, res *e2e, rp *replayStats, ls layerSet) []string {
	bins := float64(res.bins)
	lat := millis(res.lat)
	p50us := percentile(lat, 0.5) * 1e3
	sort.Float64s(rp.callUs)
	inproc := percentile(rp.callUs, 0.5)
	// Throughput is bins applied over the wall they took. rpc-single's is
	// its closed-loop phase A (capacity; phase B runs at a fixed rate).
	// restart-restore's wall includes the SIGTERM → ready outages of its
	// restart cycles: a client with bins to send waits through them.
	throughputBins, wall := res.bins, res.wall+res.outage
	if in.sp.mode == modeRPC {
		throughputBins, wall = res.capacityBins, res.capacityWall
	}
	ls["hpmserve.bins_per_s"] = float64(throughputBins) / wall.Seconds()
	ls["hpmserve.req_p50_ms"] = p50us / 1e3
	ls["hpmserve.req_tail_ms"] = percentile(lat, pickTail(len(lat)))
	ls["hpmserve.metrics_scrape_ms"] = median(millis(res.scrapes))
	ls["hpmserve.ready_s"] = median(res.ready)
	ls["hpmserve.restore_ready_s"] = median(res.restoreReady)
	ls["hpmserve.shutdown_flush_s"] = median(res.shutdownFlush)
	ls["hpmserve.http_overhead_us"] = p50us - inproc
	ls["hpmserve.http_noop_us"] = median(res.noopUs)
	ls["hpmserve.req_bytes_per_bin"] = float64(res.sentBytes) / bins
	ls["hpmserve.resp_bytes_per_bin"] = float64(res.recvBytes) / bins
	ls["hpmserve.cpu_us_per_bin"] = res.cpuSeconds * 1e6 / bins
	ls["hpmserve.create_tenant_ms"] = median(res.createMs)
	ls["hpmserve.queue_rejects"] = res.queueRejects
	ls["hpmserve.metrics_bytes"] = float64(res.metricsBytes)
	ls["hpmserve.metrics_series"] = float64(res.metricsSeries)
	ls["hpmserve.open_loop_late_us"] = median(millis(res.late)) * 1e3
	ls["fleet.persist_bytes"] = float64(res.persistBytes)
	ls["engine.qos_violation_frac"] = res.violationSum / float64(in.sp.tenants)

	// The request ledger: the client's median against three costs measured
	// independently of it — the same fleet call in process, a no-op HTTP
	// round trip, and the JSON proxies over the request's own bodies. What
	// they leave is unattributed (body transfer, handler bookkeeping,
	// scheduling between the two processes) and can be of either sign.
	callBins := in.closed[0][0].entries * in.closed[0][0].bins // bins one measured request carries
	shardUs := ls["fleet.observe_batch_us_per_bin"] * float64(callBins) * float64(conns) / float64(rp.shards)
	noop, jsonUs := ls["hpmserve.http_noop_us"], ls["hpmserve.json_decode_proxy_us"]+ls["hpmserve.json_encode_proxy_us"]
	ls["hpmserve.ledger_residual_pct"] = (p50us - inproc - noop - jsonUs) / p50us * 100

	traced, decide, mechanics := ls["core.observe_bin_traced_us"], ls["controller.tick_decide_us_per_bin"], ls["engine.mechanics_us_per_bin"]
	feed := traced - decide - mechanics
	return []string{
		fmt.Sprintf("one traced bin %.1f us = controller decide %.1f (%.0f%%) + workload feed %.1f (%.0f%%) + engine mechanics %.1f (%.0f%%)",
			traced, decide, decide/traced*100, feed, feed/traced*100, mechanics, mechanics/traced*100),
		fmt.Sprintf("request p50 %.0f us = in-process fleet call %.0f (mean %.0f = %.1f us/bin x %d bins x %d connections / %d shards) + http no-op %.0f + json proxies %.0f + unattributed %.1f%%",
			p50us, inproc, shardUs, ls["fleet.observe_batch_us_per_bin"], callBins, conns, rp.shards, noop, jsonUs, ls["hpmserve.ledger_residual_pct"]),
	}
}
