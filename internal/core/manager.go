package core

import (
	"fmt"
	"maps"
	"time"

	"hierctl/internal/cluster"
	"hierctl/internal/controller"
	"hierctl/internal/engine"
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

// Manager holds what one hierarchy learned and how it is configured: the
// configuration, the cluster spec, each module's abstraction maps g and the
// module trees J̃. It runs nothing itself and, once NewManager returns,
// changes only by SetRecorder and Release. Construct with NewManager, then call Run
// (batch replay) or NewSession (incremental stepping): each session builds
// its own controllers and estimators from the Manager's learned artifacts,
// takes its failure and chaos plans from its SessionConfig, and its engine
// harness owns the plant, so a Manager's sessions are independent of each
// other and of the order they are opened in.
type Manager struct {
	cfg  Config
	spec cluster.Spec
	// gmaps holds each module's abstraction maps, one per computer in
	// module order; jtildes each module's J̃ tree (nil for a single
	// module, which has no L2). Both are read-only and shared.
	gmaps   [][]*controller.GMap
	jtildes []controller.JTilde

	artifacts ArtifactSet
	// store and the held lists record the references this manager took in
	// its ArtifactStore (fingerprints, per kind); Release returns them.
	store     *ArtifactStore
	heldGMaps []string
	heldTrees []string

	learnTime time.Duration

	// recorder is the attached decision flight recorder (nil = off), handed
	// to the sessions built afterwards.
	recorder *obs.Recorder
}

// SetRecorder attaches a decision flight recorder to the sessions created
// afterwards: each run records its L2, L1 and L0 decisions and the engine
// its per-tick records. A nil recorder detaches. A recorder attached to a
// Manager is shared by all the sessions opened after it, which record into
// it in the order they step. Recording is observe-only: runs are
// bit-identical with it on or off, and the record sequence is the same at
// any Parallelism — a session records from one goroutine (pinned by
// TestManagerRecorderEquivalence).
func (m *Manager) SetRecorder(r *obs.Recorder) { m.recorder = r }

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
	return ArtifactSet{GMaps: maps.Clone(m.artifacts.GMaps), Trees: maps.Clone(m.artifacts.Trees)}
}

// NewManager learns what the hierarchy needs for the given cluster: the
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
// the same read-only copy. Call Release when the manager is discarded.
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

	// Key every computer and every module once; the keys index the
	// shared artifacts below.
	var computers []cluster.ComputerSpec
	var hwKeys []string
	modKeys := make([]string, len(spec.Modules))
	for i, ms := range spec.Modules {
		for _, cs := range ms.Computers {
			key := hardwareKey(cs)
			computers = append(computers, cs)
			hwKeys = append(hwKeys, key)
			modKeys[i] += key
		}
	}

	// Learn the abstraction map g once per distinct hardware.
	gmapConfig := gmapConfigKey(cfg)
	gmapCache, err := acquireDistinct(&s.gmaps, workers, len(computers), &m.heldGMaps,
		func(i int) string { return hwKeys[i] },
		func(i int, key string) artifactTask[*controller.GMap] {
			cs := computers[i]
			return artifactTask[*controller.GMap]{
				fingerprint: gmapConfig + key,
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

	m.gmaps = make([][]*controller.GMap, len(spec.Modules))
	next := 0
	for i, ms := range spec.Modules {
		if err := cfg.L1.ValidateModule(len(ms.Computers)); err != nil {
			return nil, err
		}
		for range ms.Computers {
			m.gmaps[i] = append(m.gmaps[i], gmapCache[hwKeys[next]])
			next++
		}
	}

	if len(spec.Modules) > 1 {
		// Same scheme for the per-composition J̃ trees: one learning task
		// per distinct module composition.
		treeConfig := treeConfigKey(cfg)
		treeCache, err := acquireDistinct(&s.trees, workers, len(spec.Modules), &m.heldTrees,
			func(i int) string { return modKeys[i] },
			func(i int, key string) artifactTask[*controller.TreeJTilde] {
				gmaps := m.gmaps[i]
				return artifactTask[*controller.TreeJTilde]{
					fingerprint: treeConfig + key,
					what:        "J̃ for module " + spec.Modules[i].Name,
					learn: func() (*controller.TreeJTilde, error) {
						return controller.LearnModuleTree(cfg.L0, cfg.L1, gmaps, cfg.ModuleSim)
					},
				}
			})
		if err != nil {
			return nil, err
		}
		m.artifacts.Trees = treeCache
		m.jtildes = make([]controller.JTilde, len(spec.Modules))
		for i := range spec.Modules {
			m.jtildes[i] = treeCache[modKeys[i]]
		}
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
// Manager keeps, and it runs before any control tick. When the tier already
// holds every fingerprint there is nothing to learn, and the acquires run
// inline. Keys are collected in first-seen order and results land in
// indexed slots, so the returned map is identical to the sequential walk's;
// task receives the first item that carried each key. The fingerprint of
// every reference taken is appended to *held, on error too, so the
// caller's Release returns them.
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
	tasks := make([]artifactTask[T], len(keys))
	for j, key := range keys {
		tasks[j] = task(first[j], key)
	}
	if t.holdsAll(tasks) {
		workers = 1
	}
	slots := make([]T, len(keys))
	taken := make([]string, len(keys)) // fingerprint of each reference taken
	err := par.For(workers, len(keys), func(j int) error {
		tk := tasks[j]
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

// Release returns the references this manager holds in its ArtifactStore;
// the store drops an artifact when its last holder releases it. The manager keeps its own pointers, so a released manager
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
	m.heldGMaps, m.heldTrees = nil, nil
}

// hardwareKey fingerprints the control-relevant hardware of a computer
// (everything except its name): every float64 field by its bits, the
// frequencies behind their count. The key is exact — two computers share
// it only when each field is bit-equal — and self-delimiting, so a
// module's composition key is its computers' keys concatenated.
func hardwareKey(cs cluster.ComputerSpec) string {
	b := make([]byte, 0, 8*(len(cs.FrequenciesHz)+5))
	b = appendInts(b, len(cs.FrequenciesHz))
	b = appendFloats(b, cs.FrequenciesHz...)
	return string(appendFloats(b, cs.SpeedFactor, cs.Power.Base, cs.Power.SwitchCost, cs.BootDelaySeconds))
}

// Spec returns the cluster specification.
func (m *Manager) Spec() cluster.Spec { return m.spec }

// LearnTime returns the offline learning duration.
func (m *Manager) LearnTime() time.Duration { return m.learnTime }
