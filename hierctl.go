// Package hierctl is a Go implementation of the hierarchical
// limited-lookahead control (LLC) framework for autonomic performance
// management of distributed computing systems described in:
//
//	N. Kandasamy, S. Abdelwahed, M. Khandekar,
//	"A Hierarchical Optimization Framework for Autonomic Performance
//	Management of Distributed Computing Systems", ICDCS 2006.
//
// The library provides:
//
//   - a generic LLC framework for switching hybrid systems (exhaustive
//     and bounded lookahead search, soft constraints, uncertainty-band
//     expected costs);
//   - the paper's three-level controller hierarchy (L0 DVFS control, L1
//     module control with learned abstraction maps, L2 cluster control
//     with regression-tree cost approximations);
//   - the estimation substrate (Kalman workload forecasting, EWMA
//     processing-time filters);
//   - a request-level cluster simulator (DVFS computers, boot dead
//     times, drain semantics, failure injection) to evaluate policies
//     against;
//   - workload generators reproducing the paper's synthetic §4.3 trace
//     and a World-Cup-98-like day;
//   - threshold-based baseline policies for comparison; and
//   - experiment presets regenerating every figure of the paper's
//     evaluation (see EXPERIMENTS.md).
//
// Quick start:
//
//	spec, _ := hierctl.StandardModuleCluster()
//	cfg := hierctl.DefaultConfig()
//	mgr, _ := hierctl.NewManager(spec, cfg)
//	trace, _ := hierctl.SyntheticTrace(hierctl.DefaultSyntheticConfig())
//	store, _ := hierctl.NewStore(1, hierctl.DefaultStoreConfig())
//	rec, _ := mgr.Run(store, hierctl.SessionConfig{Trace: trace})
//	fmt.Println(rec.MeanResponse(), rec.Energy)
package hierctl

import (
	"fmt"
	"io"

	"hierctl/internal/baseline"
	"hierctl/internal/chaos"
	"hierctl/internal/cluster"
	"hierctl/internal/core"
	"hierctl/internal/des"
	"hierctl/internal/engine"
	"hierctl/internal/fleet"
	"hierctl/internal/obs"
	"hierctl/internal/series"
	"hierctl/internal/workload"
)

// Aliases re-export the library's primary types so downstream users never
// import internal packages directly.
type (
	// ClusterSpec describes a whole cluster (modules of computers).
	ClusterSpec = cluster.Spec
	// ModuleSpec describes one module.
	ModuleSpec = cluster.ModuleSpec
	// ComputerSpec describes one computer's hardware.
	ComputerSpec = cluster.ComputerSpec
	// Config bundles the hierarchy's tunables.
	Config = core.Config
	// Manager holds one hierarchy's learned artifacts and configuration;
	// each of its sessions runs its own controllers, estimators and plant.
	Manager = core.Manager
	// Record holds a run's recorded results.
	Record = core.Record
	// Series is a uniformly sampled time series.
	Series = series.Series
	// Store is the virtual object store.
	Store = workload.Store
	// StoreConfig parameterizes the store.
	StoreConfig = workload.StoreConfig
	// SyntheticConfig parameterizes the §4.3 synthetic trace.
	SyntheticConfig = workload.SyntheticConfig
	// WC98Config parameterizes the World-Cup-98-like trace.
	WC98Config = workload.WC98Config
	// Scenario is one named workload scenario (trace builder, service-time
	// mix, optional failure plan) from the scenario registry.
	Scenario = workload.Scenario
	// FailureEvent is one entry of a scenario's failure plan.
	FailureEvent = workload.FailureEvent
	// BaselinePolicy decides cluster sizing for comparator runs.
	BaselinePolicy = baseline.Policy
	// BaselineResult summarizes a comparator run.
	BaselineResult = baseline.Result
	// BaselineConfig parameterizes a comparator run.
	BaselineConfig = baseline.RunnerConfig
	// Session steps one hierarchy incrementally over streamed arrivals.
	Session = core.Session
	// SessionConfig parameterizes one run of a Manager — a batch replay
	// or an incremental session — and carries its failure and chaos plans.
	SessionConfig = core.SessionConfig
	// BinDecision is the controller output for one observation bin.
	BinDecision = core.BinDecision
	// ModuleDecision is one module's operating state within a BinDecision.
	ModuleDecision = core.ModuleDecision
	// Fleet hosts many tenant hierarchies in one process (online control
	// plane); construct with NewFleet.
	Fleet = fleet.Fleet
	// FleetConfig parameterizes a fleet.
	FleetConfig = fleet.Config
	// TenantConfig describes one fleet tenant.
	TenantConfig = fleet.TenantConfig
	// TenantState is a tenant's progress report.
	TenantState = fleet.TenantState
	// FleetStats holds the fleet's fixed-size counters, which the shards
	// count as their tenants step (Fleet.Stats): bins, ticks and stepping
	// time, per-level decision histograms, tick counters, and the
	// FleetTopK worst tenants per counter.
	FleetStats = fleet.Stats
	// FleetTopTenants is one worst-tenant ranking of a FleetStats.
	FleetTopTenants = fleet.TopTenants
	// ArtifactKindStats counts one kind of shared learning artifact in a
	// fleet (FleetStats.Artifacts): held, learned, shared.
	ArtifactKindStats = core.ArtifactKindStats
	// BatchEntry is one tenant's slice of a batched ingest call.
	BatchEntry = fleet.BatchEntry
	// BatchResult reports one batch entry's outcome (index-aligned with
	// the entries passed to Fleet.ObserveBatch).
	BatchResult = fleet.BatchResult
	// FleetJournal is the incremental on-disk snapshot journal: a full
	// base snapshot plus delta frames for what changed since, with
	// size/age-triggered compaction. Construct with OpenFleetJournal.
	FleetJournal = fleet.Journal
	// FleetJournalConfig tunes the journal's compaction policy.
	FleetJournalConfig = fleet.JournalConfig
	// FleetJournalStats reports journal size and compaction counters.
	FleetJournalStats = fleet.JournalStats
	// FleetVerifyReport summarizes a read-only integrity scan of a
	// snapshot/journal log (see VerifyFleetJournal).
	FleetVerifyReport = fleet.VerifyReport
	// ChaosPlan is a deterministic sensor-fault plan: faults that corrupt
	// what the controllers observe (never the plant), availability events
	// merged into the run's failure plan, and an optional decision budget
	// that trips the degraded-mode fallback. The zero plan is bit-identical
	// to no plan.
	ChaosPlan = chaos.Plan
	// ChaosFault is one sensor-fault event of a ChaosPlan.
	ChaosFault = chaos.Fault
	// ChaosSpec is one named entry of the chaos-plan registry.
	ChaosSpec = chaos.Spec
	// L3Policy decides the cross-cluster budget split at each L3 boundary
	// of a multi-cluster run.
	L3Policy = engine.L3Policy
	// L3Obs is what an L3 policy sees about one cluster at a boundary: the
	// window as the cluster's own policy observed it (sensor faults and
	// the sanitizer included), plus capacity state.
	L3Obs = engine.L3Obs
	// L3Event records one cross-cluster reallocation.
	L3Event = engine.L3Event
	// ProportionalShare is the reference L3 policy (largest-remainder
	// split proportional to window arrivals, floor 1 per live cluster).
	ProportionalShare = engine.ProportionalShare
	// TelemetryRecorder is the decision flight recorder: a fixed-size,
	// allocation-free ring of per-tick and per-controller records. Attach
	// one with Manager.SetRecorder before running; a nil recorder keeps
	// the hierarchy's zero-allocation decision path.
	TelemetryRecorder = obs.Recorder
	// TelemetryRecord is one flight-recorder entry.
	TelemetryRecord = obs.Record
	// TelemetryLevel identifies which layer wrote a record (tick, l0, l1,
	// l2).
	TelemetryLevel = obs.Level
)

// Fleet sentinel errors, re-exported for errors.Is checks.
var (
	ErrFleetClosed    = fleet.ErrClosed
	ErrTenantNotFound = fleet.ErrNotFound
	ErrTenantExists   = fleet.ErrExists
	// ErrFleetQueueFull is returned per-entry by Fleet.ObserveBatch when
	// the target tenant's home-shard ingest queue is at capacity.
	ErrFleetQueueFull = fleet.ErrQueueFull
	// ErrTenantQuarantined is returned for stepping operations on a tenant
	// whose controller stack panicked; the panic was recovered on the home
	// shard and sibling tenants keep running.
	ErrTenantQuarantined = fleet.ErrTenantQuarantined
)

// FleetTopK is the length of a FleetStats worst-tenant ranking.
const FleetTopK = fleet.TopK

// FleetTelemetryLevels are the hierarchy levels FleetStats.Levels is
// indexed by.
var FleetTelemetryLevels = core.TallyLevels

// FleetTelemetryDecideBounds returns the bucket bounds (seconds) of a
// FleetStats level's DecideBuckets.
func FleetTelemetryDecideBounds() []float64 { return core.DecideBounds() }

// FleetTelemetryExploredBounds returns the bucket bounds (states) of a
// FleetStats level's ExploredBuckets.
func FleetTelemetryExploredBounds() []float64 { return core.ExploredBounds() }

// NewFleet starts an online control plane hosting tenant hierarchies
// sharded across worker goroutines.
func NewFleet(cfg FleetConfig) *Fleet { return fleet.New(cfg) }

// OpenFleetJournal opens (or creates) the incremental snapshot journal
// at path: an existing log — including one cut short by a crash — is
// restored into the fleet, and a fresh full snapshot is compacted before
// the journal accepts appends. Journal.Append then persists only what
// changed since the previous append.
func OpenFleetJournal(f *Fleet, path string, cfg FleetJournalConfig) (*FleetJournal, error) {
	return fleet.OpenJournal(f, path, cfg)
}

// VerifyFleetJournal scans the snapshot/journal log at path read-only and
// checks every integrity property the restore path relies on (magic
// header, per-frame CRCs, delta ordering) without building any tenant. A
// torn final frame — recoverable crash damage — is reported on the
// returned report, not as an error; corruption is an error.
func VerifyFleetJournal(path string) (*FleetVerifyReport, error) {
	return fleet.VerifyJournalFile(path)
}

// ChaosPlans returns every chaos plan's spec sorted by name.
func ChaosPlans() []ChaosSpec { return chaos.Specs() }

// ChaosPlanNames returns the sorted chaos-plan names.
func ChaosPlanNames() []string { return chaos.Names() }

// LookupChaosPlan resolves a chaos plan by name. Unknown names error with
// the list of plans.
func LookupChaosPlan(name string) (ChaosSpec, error) { return chaos.Lookup(name) }

// CheckTelemetryRecords reports whether n is a valid
// TenantConfig.TelemetryRecords: 0 (off) up to the 1 << 20 records a
// tenant may retain (NewTelemetryRecorder's ring, allocated at create).
func CheckTelemetryRecords(n int) error { return fleet.CheckTelemetryRecords(n) }

// CheckBinCount reports whether count is a valid arrival count for one
// observation bin — the bound every fleet tenant applies to a bin before
// stepping it, exposed so a front end can refuse the request instead.
func CheckBinCount(count float64) error { return fleet.CheckBinCount(count) }

// NewTelemetryRecorder builds a flight recorder retaining the newest
// capacity records. Writes are allocation-free.
func NewTelemetryRecorder(capacity int) (*TelemetryRecorder, error) {
	return obs.NewRecorder(capacity)
}

// WriteTelemetryJSONL streams records as JSON Lines (one object per
// line), the grep/jq-friendly export.
func WriteTelemetryJSONL(w io.Writer, recs []TelemetryRecord) error {
	return obs.WriteJSONL(w, recs)
}

// WriteDecisionTrace renders records as a Chrome trace_event file
// (load it in chrome://tracing or Perfetto). Decide latencies become
// duration slices on per-computer/per-module tracks placed at simulated
// time (tick × periodSeconds); costs, γ splits, frequencies, and the
// operational-computer count become counter tracks.
func WriteDecisionTrace(w io.Writer, recs []TelemetryRecord, periodSeconds float64) error {
	return obs.WriteTrace(w, recs, periodSeconds)
}

// DefaultConfig returns the paper's settable parameters (§4.3/§5.2):
// N_L0 = 3, T_L1 = T_L2 = 2 min, W = 8, γ_ij quantized at 0.05 and γ_i at
// 0.1. The paper's fixed ones (T_L0 = 30 s, r* = 4 s, Q = 100, R = 1, the
// estimator constants and the store's demand and locality laws) are
// constants, not fields.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewManager builds the controller hierarchy for a cluster, performing the
// offline simulation-based learning of abstraction maps and regression
// trees (§4.2, §5.1).
func NewManager(spec ClusterSpec, cfg Config) (*Manager, error) {
	return core.NewManager(spec, cfg)
}

// StandardComputer returns catalogue computer kind ∈ {0..3} (C1..C4 of
// Fig. 3) under the given unique name.
func StandardComputer(kind int, name string) (ComputerSpec, error) {
	return cluster.StandardComputer(kind, name)
}

// StandardModuleCluster returns the §4.3 single-module cluster: one module
// with computers C1..C4 of Fig. 3.
func StandardModuleCluster() (ClusterSpec, error) {
	m, err := cluster.StandardModule("M1", "M1")
	if err != nil {
		return ClusterSpec{}, err
	}
	return ClusterSpec{Modules: []ModuleSpec{m}}, nil
}

// ScaledModuleCluster returns a single-module cluster of the given size
// cycling through the Fig. 3 catalogue — the m = 6 and m = 10 variants of
// §4.3.
func ScaledModuleCluster(size int) (ClusterSpec, error) {
	m, err := cluster.ScaledModule("M1", "M1", size)
	if err != nil {
		return ClusterSpec{}, err
	}
	return ClusterSpec{Modules: []ModuleSpec{m}}, nil
}

// StandardCluster returns the §5.2 cluster of p heterogeneous modules of
// four computers each (16 computers at p = 4, 20 at p = 5).
func StandardCluster(p int) (ClusterSpec, error) {
	return cluster.StandardCluster(p)
}

// DefaultStoreConfig returns the paper's virtual-store parameters (10 000
// objects, 1000 popular receiving 90% of requests, U(10, 25) ms demands,
// lognormal temporal locality).
func DefaultStoreConfig() StoreConfig { return workload.DefaultStoreConfig() }

// NewStore builds a virtual object store from a seed. The per-object
// demands and the Zipf popularity draws come from the stream
// des.NewStream(seed, "store") — the derivation a fleet tenant's store
// uses, so a store built here and a tenant's agree at one seed.
func NewStore(seed int64, cfg StoreConfig) (*Store, error) {
	return workload.NewStore(des.NewStream(seed, "store"), cfg)
}

// DefaultSyntheticConfig returns the §4.3 synthetic trace parameters.
func DefaultSyntheticConfig() SyntheticConfig { return workload.DefaultSyntheticConfig() }

// SyntheticTrace builds the §4.3 synthetic workload trace.
func SyntheticTrace(cfg SyntheticConfig) (*Series, error) { return workload.Synthetic(cfg) }

// DefaultWC98Config returns the Fig. 6 trace parameters.
func DefaultWC98Config() WC98Config { return workload.DefaultWC98Config() }

// WC98Trace builds the World-Cup-98-like day trace of §5.2.
func WC98Trace(cfg WC98Config) (*Series, error) { return workload.WorldCup98Like(cfg) }

// StepTrace builds a square-wave trace for controlled scale-up/down tests.
func StepTrace(bins int, binSeconds, lo, hi float64, period int) (*Series, error) {
	return workload.StepLoad(bins, binSeconds, lo, hi, period)
}

// Scenarios returns every registered workload scenario sorted by name.
func Scenarios() []Scenario { return workload.Scenarios() }

// ScenarioNames returns the sorted registered scenario names;
// parameterized scenarios carry their argument hint ("tracefile:<path>").
func ScenarioNames() []string { return workload.ScenarioNames() }

// LookupScenario resolves a scenario selection by name ("flashcrowd",
// "tracefile:day.csv", ...). Unknown names error with the registered list.
func LookupScenario(name string) (Scenario, error) { return workload.LookupScenario(name) }

// RegisterScenario adds a user-defined scenario to the registry, making it
// selectable by name throughout the experiment runners, CLIs, and daemon.
func RegisterScenario(s Scenario) error { return workload.RegisterScenario(s) }

// AlwaysOnPolicy returns the static all-on/full-speed baseline.
func AlwaysOnPolicy() BaselinePolicy { return baseline.AlwaysOn{} }

// ThresholdPolicy returns the utilization-watermark on/off baseline
// (Pinheiro et al.-style).
func ThresholdPolicy(low, high float64, minOn int) (BaselinePolicy, error) {
	return baseline.NewThreshold(low, high, minOn)
}

// ThresholdDVFSPolicy returns the watermark + frequency-scaling baseline
// (Elnozahy et al.-style).
func ThresholdDVFSPolicy(low, high float64, minOn int, utilTarget float64) (BaselinePolicy, error) {
	return baseline.NewThresholdDVFS(low, high, minOn, utilTarget)
}

// DefaultBaselineConfig returns comparator cadences matched to the
// hierarchy's (fair comparison under the same boot dead time).
func DefaultBaselineConfig() BaselineConfig { return baseline.DefaultRunnerConfig() }

// RunBaseline simulates a comparator policy on the same plant and
// workload machinery the hierarchy uses.
func RunBaseline(spec ClusterSpec, policy BaselinePolicy, trace *Series, store *Store, cfg BaselineConfig) (*BaselineResult, error) {
	return baseline.Run(spec, policy, trace, store, cfg)
}

// L3Cluster describes one member of a multi-cluster (L3) run: its own
// cluster, baseline policy, workload, and runner configuration. Each
// member keeps independent RNG streams (seeded by its own Config.Seed).
type L3Cluster struct {
	Name   string
	Spec   ClusterSpec
	Policy BaselinePolicy
	Trace  *Series
	Store  *Store
	Config BaselineConfig
}

// RunMultiCluster advances the clusters under one shared simulation clock
// and runs the L3 policy on top: every l3PeriodSeconds it observes each
// cluster's window (arrivals, completions, response — the sums the
// cluster's own policy was shown) and reallocates budget operational
// computers across the clusters — the cross-cluster layer above the
// paper's L2. Returns the per-cluster results
// (index-aligned with clusters) and the reallocation history. The run is
// deterministic for a given input tuple.
func RunMultiCluster(clusters []L3Cluster, l3 L3Policy, budget int, l3PeriodSeconds float64) ([]*BaselineResult, []L3Event, error) {
	members := make([]engine.Member, len(clusters))
	finals := make([]func() *baseline.Result, len(clusters))
	for idx, c := range clusters {
		h, finalize, err := baseline.PrepareEngine(c.Spec, c.Policy, c.Trace, c.Store, c.Config)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster %q: %w", c.Name, err)
		}
		members[idx] = engine.Member{Name: c.Name, Harness: h, Trace: c.Trace}
		finals[idx] = finalize
	}
	mc, err := engine.NewMultiCluster(members, l3, budget, l3PeriodSeconds)
	if err != nil {
		return nil, nil, err
	}
	if err := mc.Run(); err != nil {
		return nil, nil, err
	}
	results := make([]*BaselineResult, len(clusters))
	for idx, finalize := range finals {
		results[idx] = finalize()
	}
	return results, mc.Events(), nil
}
