package core

import (
	"fmt"
	"time"

	"hierctl/internal/chaos"
	"hierctl/internal/cluster"
	"hierctl/internal/controller"
	"hierctl/internal/engine"
	"hierctl/internal/forecast"
	"hierctl/internal/obs"
	"hierctl/internal/par"
	"hierctl/internal/workload"
)

// Config bundles the hierarchy's tunables. Use DefaultConfig for the
// paper's settings.
type Config struct {
	// L0, L1 and L2 configure the three controller levels.
	L0 controller.L0Config
	L1 controller.L1Config
	L2 controller.L2Config
	// GMap configures the offline learning grid for the abstraction
	// maps g, and ModuleSim the grid for the L2 regression trees.
	GMap      controller.GMapConfig
	ModuleSim controller.ModuleSimConfig
	// Seed drives every random stream of the run (dispatching, request
	// generation noise); runs are reproducible per seed.
	Seed int64
	// DefaultCHat is the processing-time prior used until the EWMA
	// filter has observations (seconds).
	DefaultCHat float64
	// DrainSeconds extends the simulation past the trace end so
	// in-flight requests complete into the aggregate statistics.
	DrainSeconds float64
	// RecordFrequencies enables the per-computer frequency series
	// (Fig. 5) of a trace (batch) run; large clusters may disable it to
	// save memory. It does nothing to a streaming session, which records
	// no series.
	RecordFrequencies bool
	// OracleForecast replaces the Kalman arrival forecasts with the
	// true future trace counts (scaled by each module's current share).
	// This is not a realizable controller — it measures the value of
	// perfect information, bounding how much of the remaining QoS gap
	// is attributable to forecast error (EXT2 ablation).
	OracleForecast bool
	// Parallelism bounds the worker pool that fans out the offline
	// learning of abstraction maps and module trees in NewManager. 0 (the
	// default) uses one worker per available CPU (GOMAXPROCS); 1 learns
	// sequentially, the setting for a Manager built inside another pool
	// (a matrix cell, a benchmark tenant) so that pools do not nest.
	// Nothing fans out inside a control tick, so the run and its
	// flight-recorder sequence are bit-identical at any value —
	// Parallelism only changes learning wall-clock time.
	Parallelism int
}

// DefaultConfig returns the paper's parameter set (§4.3, §5.2).
func DefaultConfig() Config {
	return Config{
		L0:                controller.DefaultL0Config(),
		L1:                controller.DefaultL1Config(),
		L2:                controller.DefaultL2Config(),
		GMap:              controller.DefaultGMapConfig(),
		ModuleSim:         controller.DefaultModuleSimConfig(),
		Seed:              1,
		DefaultCHat:       workload.DefaultCHat,
		DrainSeconds:      engine.DefaultDrainSeconds,
		RecordFrequencies: true,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.L0.Validate(); err != nil {
		return err
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if err := c.GMap.Validate(); err != nil {
		return err
	}
	if err := c.ModuleSim.Validate(); err != nil {
		return err
	}
	if c.DefaultCHat <= 0 {
		return fmt.Errorf("core: default c-hat %v <= 0", c.DefaultCHat)
	}
	if c.DrainSeconds < 0 {
		return fmt.Errorf("core: drain seconds %v < 0", c.DrainSeconds)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("core: parallelism %d < 0", c.Parallelism)
	}
	if c.L1.PeriodSeconds < controller.PeriodL0 ||
		modRem(c.L1.PeriodSeconds, controller.PeriodL0) != 0 {
		return fmt.Errorf("core: T_L1 %v must be a multiple of T_L0 %v", c.L1.PeriodSeconds, controller.PeriodL0)
	}
	if c.L2.PeriodSeconds < c.L1.PeriodSeconds ||
		modRem(c.L2.PeriodSeconds, c.L1.PeriodSeconds) != 0 {
		return fmt.Errorf("core: T_L2 %v must be a multiple of T_L1 %v", c.L2.PeriodSeconds, c.L1.PeriodSeconds)
	}
	return nil
}

func modRem(a, b float64) float64 {
	n := int(a/b + 0.5)
	r := a - float64(n)*b
	if r < 1e-9 && r > -1e-9 {
		return 0
	}
	return r
}

// moduleAsm bundles one module's controllers and estimators.
type moduleAsm struct {
	specs []cluster.ComputerSpec
	gmaps []*controller.GMap
	l1    *controller.L1
	l0s   []*controller.L0

	kalman0 *forecast.Kalman // module arrivals per T_L0 bin
	kalman1 *forecast.Kalman // module arrivals per T_L1 bin
	band    *forecast.Band   // δ at T_L1 granularity
	band0   *forecast.Band   // δ at T_L0 granularity (L0 burst hedging)
	cEst    *forecast.EWMA

	alpha []bool
	gamma []float64

	lastPer []cluster.IntervalStats
	lastAgg cluster.IntervalStats

	arrivedTL1   int
	predictedTL1 float64
	hasPredicted bool

	// pendingRatio rescales the module's own arrival forecast right
	// after the L2 reallocates fractions: the module filter has only
	// seen arrivals under the old γ_i, but λ_i = γ_i·λ_g (Fig. 2b), so
	// the known new share adjusts the forecast until the filter catches
	// up. 1 means no pending reallocation.
	pendingRatio float64
	// l0Ratio carries the same correction down to the L0 frequency
	// controllers for the remainder of the L1 period, since their
	// per-T_L0 filter lags reallocations just the same.
	l0Ratio float64

	// Observation scratch, reused across control periods: the
	// controllers read their observation slices and never retain them,
	// and each module is planned by a single goroutine, so the decision
	// loop stays allocation-free (the tick invariant — see the
	// controller package doc).
	obsQueues []float64
	obsAvail  []bool
	l0Lambda  []float64
}

// Manager owns one experiment: the plant, the controller hierarchy, the
// estimators, and the learned approximations. Construct with NewManager,
// then call Run (batch replay) or NewSession (incremental stepping).
type Manager struct {
	cfg     Config
	spec    cluster.Spec
	modules []*moduleAsm
	l2      *controller.L2
	kalmanG *forecast.Kalman // cluster arrivals per T_L2 bin
	bandG   *forecast.Band   // δ at T_L2 granularity

	artifacts ArtifactSet
	// store and the held lists record the references this manager took in
	// its ArtifactStore (fingerprints or table keys, per kind); Release
	// returns them.
	store      *ArtifactStore
	heldGMaps  []string
	heldTrees  []string
	heldTables []string

	learnTime time.Duration

	// failures is the injected availability plan (InjectFailure,
	// InjectRepair, InjectPlan), handed to the harness as is; it quantizes
	// each event to the next T_L0 boundary.
	failures []workload.FailureEvent

	// chaos is the injected sensor-fault plan (see InjectChaos); the zero
	// plan injects nothing.
	chaos chaos.Plan

	// l1Failpoint is a test seam invoked at the top of every L1 planning
	// call (see SetL1Failpoint). Never serialized; nil in production.
	l1Failpoint func(module, tick int)
	// observeFailpoint is a test seam invoked at the top of every tick's
	// Observe (see SetObserveFailpoint). Never serialized; nil in
	// production.
	observeFailpoint func(tick int)

	// recorder is the attached decision flight recorder (nil = off); it
	// feeds every controller and the sessions built afterwards.
	recorder *obs.Recorder
}

// SetRecorder attaches a decision flight recorder to the whole hierarchy
// — the L2, every module's L1, every L0 — and to sessions created
// afterwards (which add the engine's per-tick records). A nil recorder
// detaches. Recording is observe-only: runs are bit-identical with it on
// or off, and the record sequence is the same at any Parallelism — the
// hierarchy records from one goroutine (pinned by
// TestManagerRecorderEquivalence).
func (m *Manager) SetRecorder(r *obs.Recorder) {
	m.recorder = r
	for i, asm := range m.modules {
		asm.l1.SetRecorder(r, i)
		for j, l0 := range asm.l0s {
			l0.SetRecorder(r, i, j)
		}
	}
	if m.l2 != nil {
		m.l2.SetRecorder(r)
	}
}

// Recorder returns the attached flight recorder (nil when disabled).
func (m *Manager) Recorder() *obs.Recorder { return m.recorder }

// ArtifactSet holds the offline learning results — the abstraction maps g
// per distinct hardware and the regression trees J̃ per distinct module
// composition — keyed by the manager's configuration fingerprints. A set
// is only valid for the exact Config and cluster hardware it was learned
// under.
type ArtifactSet struct {
	GMaps map[string]*controller.GMap
	Trees map[string]*controller.TreeJTilde
}

// Artifacts returns the manager's learned approximations. The maps are
// copied but the artifacts themselves are shared; they are read-only
// during decision making.
func (m *Manager) Artifacts() ArtifactSet {
	out := ArtifactSet{
		GMaps: make(map[string]*controller.GMap, len(m.artifacts.GMaps)),
		Trees: make(map[string]*controller.TreeJTilde, len(m.artifacts.Trees)),
	}
	for k, v := range m.artifacts.GMaps {
		out.GMaps[k] = v
	}
	for k, v := range m.artifacts.Trees {
		out.Trees[k] = v
	}
	return out
}

// NewManager builds the hierarchy for the given cluster: it learns the
// abstraction map g for every distinct computer hardware (§4.2) and, when
// the cluster has more than one module, the regression-tree J̃ for every
// distinct module composition (§5.1). Learning results are shared across
// identical hardware, which is what keeps the approach scalable. A manager
// built here shares only within itself (its store is private); to share
// across managers build them through one ArtifactStore.
func NewManager(spec cluster.Spec, cfg Config) (*Manager, error) {
	return NewArtifactStore().NewManager(spec, cfg)
}

// NewManager is the package-level NewManager with the offline learning
// shared through the store: every artifact is acquired by fingerprint, so
// only the first manager of a fingerprint learns it and all of them use
// the same read-only copy, and every L1 reads the candidate table
// of its shape. Call Release when the manager is discarded.
func (s *ArtifactStore) NewManager(spec cluster.Spec, cfg Config) (_ *Manager, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := &Manager{cfg: cfg, spec: spec, store: s}
	defer func() {
		if err != nil {
			m.Release()
		}
	}()
	learnStart := time.Now() //hpm:wallclock one-time learning-phase duration report; observe-only
	workers := par.Workers(cfg.Parallelism)

	// Learn the abstraction map g once per distinct hardware.
	var computers []cluster.ComputerSpec
	for _, ms := range spec.Modules {
		computers = append(computers, ms.Computers...)
	}
	gmapCache, err := acquireDistinct(&s.gmaps, workers, len(computers), &m.heldGMaps,
		func(i int) string { return hardwareKey(computers[i]) },
		func(i int, key string) artifactTask[*controller.GMap] {
			cs := computers[i]
			return artifactTask[*controller.GMap]{
				fingerprint: gmapFingerprint(cfg, key),
				what:        "g for " + cs.Name,
				learn: func() (*controller.GMap, error) {
					return controller.LearnGMap(cfg.L0, cs, cfg.GMap)
				},
			}
		})
	if err != nil {
		return nil, err
	}
	m.artifacts = ArtifactSet{GMaps: gmapCache, Trees: map[string]*controller.TreeJTilde{}}

	for _, ms := range spec.Modules {
		asm := &moduleAsm{}
		for _, cs := range ms.Computers {
			asm.specs = append(asm.specs, cs)
			asm.gmaps = append(asm.gmaps, gmapCache[hardwareKey(cs)])
		}
		l1, err := controller.NewL1(cfg.L1, asm.gmaps, m.acquireTable(controller.L1TableKey(cfg.L1, asm.gmaps)))
		if err != nil {
			return nil, err
		}
		asm.l1 = l1
		for _, cs := range ms.Computers {
			l0, err := controller.NewL0(cfg.L0, cs)
			if err != nil {
				return nil, err
			}
			asm.l0s = append(asm.l0s, l0)
		}
		asm.cEst, err = forecast.NewEWMA(forecast.CHatSmoothing)
		if err != nil {
			return nil, err
		}
		asm.band, err = forecast.NewBand(forecast.BandSmoothing)
		if err != nil {
			return nil, err
		}
		asm.band0, err = forecast.NewBand(forecast.BandSmoothing)
		if err != nil {
			return nil, err
		}
		asm.alpha = make([]bool, len(ms.Computers))
		asm.gamma = make([]float64, len(ms.Computers))
		m.modules = append(m.modules, asm)
	}

	if len(spec.Modules) > 1 {
		// Same scheme for the per-composition J̃ trees: one learning task
		// per distinct module composition.
		treeCache, err := acquireDistinct(&s.trees, workers, len(spec.Modules), &m.heldTrees,
			func(i int) string { return moduleKey(spec.Modules[i]) },
			func(i int, key string) artifactTask[*controller.TreeJTilde] {
				asm := m.modules[i]
				return artifactTask[*controller.TreeJTilde]{
					fingerprint: treeFingerprint(cfg, key),
					what:        "J̃ for module " + spec.Modules[i].Name,
					learn: func() (*controller.TreeJTilde, error) {
						return controller.LearnModuleTree(cfg.L0, cfg.L1, asm.gmaps, cfg.ModuleSim)
					},
				}
			})
		if err != nil {
			return nil, err
		}
		m.artifacts.Trees = treeCache
		jtildes := make([]controller.JTilde, len(spec.Modules))
		for i := range m.modules {
			jtildes[i] = treeCache[moduleKey(spec.Modules[i])]
		}
		l2, err := controller.NewL2(cfg.L2, jtildes)
		if err != nil {
			return nil, err
		}
		m.l2 = l2
	}
	m.learnTime = time.Since(learnStart) //hpm:wallclock one-time learning-phase duration report; observe-only
	return m, nil
}

// artifactTask is one distinct artifact a manager needs from a tier.
type artifactTask[T any] struct {
	fingerprint string
	what        string // names the artifact in a learning error
	learn       func() (T, error)
}

// acquireDistinct resolves one artifact per distinct key among n items,
// fanning the learning tasks across the worker pool — the one fan-out a
// Manager keeps, and it runs before any control tick. Keys are collected in
// first-seen order and results land in indexed slots, so the returned map
// is identical to the sequential walk's; task receives the first item that
// carried each key. The fingerprint of every reference taken is appended
// to *held, on error too, so the caller's Release returns them.
func acquireDistinct[T any](t *artifactTier[T], workers, n int, held *[]string, keyOf func(i int) string, task func(i int, key string) artifactTask[T]) (map[string]T, error) {
	var keys []string
	var first []int
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		if key := keyOf(i); !seen[key] {
			seen[key] = true
			keys = append(keys, key)
			first = append(first, i)
		}
	}
	slots := make([]T, len(keys))
	taken := make([]string, len(keys)) // fingerprint of each reference taken
	err := par.For(workers, len(keys), func(j int) error {
		tk := task(first[j], keys[j])
		val, err := t.acquire(tk.fingerprint, tk.learn)
		if err != nil {
			return fmt.Errorf("core: learning %s: %w", tk.what, err)
		}
		slots[j], taken[j] = val, tk.fingerprint
		return nil
	})
	for _, fp := range taken {
		if fp != "" {
			*held = append(*held, fp)
		}
	}
	if err != nil {
		return nil, err
	}
	cache := make(map[string]T, len(keys))
	for j, key := range keys {
		cache[key] = slots[j]
	}
	return cache, nil
}

// acquireTable takes a reference to the store's candidate table for an
// L1 shape key, recorded for Release under the table's own copy of the
// key, so managers of a shape hold one key string between them.
func (m *Manager) acquireTable(key string) *controller.CandidateTable {
	// The error is dropped because this learn cannot fail.
	t, _ := m.store.tables.acquire(key, func() (*controller.CandidateTable, error) {
		return controller.NewCandidateTable(key), nil
	})
	m.heldTables = append(m.heldTables, t.Key())
	return t
}

// Release returns the references this manager holds in its ArtifactStore;
// the store drops an artifact or a candidate table when its last holder
// releases it. The manager keeps its own pointers, so a released manager
// still works — it just no longer keeps the store's entries alive.
// Idempotent; a manager from the package-level NewManager need not call it
// (its private store dies with it).
func (m *Manager) Release() {
	for _, fp := range m.heldGMaps {
		m.store.gmaps.release(fp)
	}
	for _, fp := range m.heldTrees {
		m.store.trees.release(fp)
	}
	for _, key := range m.heldTables {
		m.store.tables.release(key)
	}
	m.heldGMaps, m.heldTrees, m.heldTables = nil, nil, nil
}

// hardwareKey fingerprints the control-relevant hardware of a computer
// (everything except its name).
func hardwareKey(cs cluster.ComputerSpec) string {
	return fmt.Sprintf("%v|%v|%v|%v", cs.FrequenciesHz, cs.SpeedFactor, cs.Power, cs.BootDelaySeconds)
}

// moduleKey fingerprints a module's composition.
func moduleKey(ms cluster.ModuleSpec) string {
	key := ""
	for _, cs := range ms.Computers {
		key += hardwareKey(cs) + ";"
	}
	return key
}

// Spec returns the cluster specification.
func (m *Manager) Spec() cluster.Spec { return m.spec }

// LearnTime returns the offline learning duration.
func (m *Manager) LearnTime() time.Duration { return m.learnTime }

// InjectFailure schedules computer comp of module mod to fail at the given
// simulation time (quantized to the next T_L0 boundary). Call before Run.
func (m *Manager) InjectFailure(at float64, mod, comp int) {
	m.failures = append(m.failures, workload.FailureEvent{At: at, Module: mod, Comp: comp})
}

// InjectRepair schedules a repair (the computer returns to the Off state
// and may be powered on again by the hierarchy).
func (m *Manager) InjectRepair(at float64, mod, comp int) {
	m.failures = append(m.failures, workload.FailureEvent{At: at, Module: mod, Comp: comp, Repair: true})
}

// InjectPlan schedules a scenario failure plan, skipping entries whose
// (Module, Comp) indices are not in the cluster — the same contract the
// baseline and centralized runners apply via cluster.ApplyPlannedFailures,
// so one plan drives every policy identically. Call before Run/NewSession.
func (m *Manager) InjectPlan(plan []workload.FailureEvent) {
	for _, f := range plan {
		if f.Module < 0 || f.Module >= len(m.spec.Modules) {
			continue
		}
		if f.Comp < 0 || f.Comp >= len(m.spec.Modules[f.Module].Computers) {
			continue
		}
		m.failures = append(m.failures, f)
	}
}

// InjectChaos schedules a sensor-fault chaos plan for sessions created
// afterwards: its sensor faults corrupt what the controllers observe (the
// plant and its accounting stay truthful), its availability events merge
// with the scenario failure plan, and a positive DecisionBudget caps the
// explored states of every LLC search — searches that exhaust it trip the
// deterministic degraded-tick fallback. An empty plan is a no-op: runs
// stay bit-identical to never calling InjectChaos. Call before
// Run/NewSession.
func (m *Manager) InjectChaos(p chaos.Plan) {
	m.chaos = p
	if p.DecisionBudget > 0 {
		for _, asm := range m.modules {
			asm.l1.SetMaxExplored(p.DecisionBudget)
			for _, l0 := range asm.l0s {
				l0.SetMaxExplored(p.DecisionBudget)
			}
		}
		if m.l2 != nil {
			m.l2.SetMaxExplored(p.DecisionBudget)
		}
	}
}

// SetL1Failpoint installs a test hook invoked at the top of every L1
// planning call with the module index and tick; a panicking hook
// exercises the degraded-tick recovery path. Nil (the default) disables
// it. Test seam only — never serialized, never set in production.
func (m *Manager) SetL1Failpoint(fn func(module, tick int)) { m.l1Failpoint = fn }

// SetObserveFailpoint installs a test hook invoked with the tick at the top
// of every tick's Observe — after the tick's mechanics ran and the clock
// advanced, outside every controller guard — so a panicking hook stops a
// session mid-bin the way an unguarded fault would. Nil (the default)
// disables it. Test seam only — never serialized, never set in production.
func (m *Manager) SetObserveFailpoint(fn func(tick int)) { m.observeFailpoint = fn }
