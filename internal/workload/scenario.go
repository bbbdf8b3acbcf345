package workload

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"

	"hierctl/internal/series"
)

// FailureEvent is one entry of a scenario's failure plan: computer Comp of
// module Module fails (or, with Repair set, returns to the Off state) at
// workload-clock time At seconds past the trace start. Runners quantize
// the time to their next control boundary and skip events whose (Module,
// Comp) indices do not exist in the cluster under test, so one plan serves
// clusters of any shape.
type FailureEvent struct {
	At     float64
	Module int
	Comp   int
	Repair bool
}

// Scenario is one named workload scenario: an arrival-trace builder, the
// service-time mix it runs against, and an optional failure plan. The
// scenario registry is how experiments, CLIs, and the control-plane daemon
// select workloads by name.
//
// Invariant: Trace must be deterministic per seed — two calls with the
// same seed return bin-for-bin identical series. Everything downstream
// (the robustness matrix snapshot, the CLI runs, fleet tenant seeding)
// relies on it.
type Scenario struct {
	// Name is the registry key (lowercase, no spaces or colons).
	Name string
	// Description is a one-line summary for listings and docs.
	Description string
	// NeedsArg marks parameterized scenarios that cannot be built from
	// the bare name; they are selected as "name:arg" (e.g.
	// "tracefile:day.csv") and skipped by whole-registry sweeps.
	NeedsArg bool
	// Arg carries the parameter Lookup parsed from a "name:arg"
	// selection; empty for plain scenarios.
	Arg string
	// Computers is the cluster size the trace amplitude is designed for
	// (4 for the §4.3 module-scale scenarios, 16 for the §5.2 wc98 day);
	// 0 means unknown (recorded traces). ScaleToCluster uses it to drive
	// differently sized clusters at comparable per-computer load.
	Computers int
	// Trace builds the arrival trace (requests per bin) for the seed.
	Trace func(seed int64) (*series.Series, error)
	// Store returns the service-time mix; nil means the paper's
	// DefaultStoreConfig.
	Store func() StoreConfig
	// Failures returns the failure plan for the (possibly trimmed) trace
	// the run will actually use; nil means no injected failures.
	Failures func(tr *series.Series) []FailureEvent
}

// StoreConfig resolves the scenario's service-time mix, falling back to
// the paper's default store.
func (s Scenario) StoreConfig() StoreConfig {
	if s.Store == nil {
		return DefaultStoreConfig()
	}
	return s.Store()
}

// FailurePlan resolves the scenario's failure plan for the given trace
// (nil when the scenario injects none).
func (s Scenario) FailurePlan(tr *series.Series) []FailureEvent {
	if s.Failures == nil {
		return nil
	}
	return s.Failures(tr)
}

// ScaleToCluster rescales the trace amplitude in place by
// computers/s.Computers — the paper's §4.3 recipe ("after appropriately
// scaling the original workload") for driving a cluster of a different
// size with the same workload shape. It is a no-op when either size is
// unknown (<= 0) or the sizes match, and returns the trace for chaining.
func (s Scenario) ScaleToCluster(tr *series.Series, computers int) *series.Series {
	if s.Computers <= 0 || computers <= 0 || computers == s.Computers {
		return tr
	}
	return tr.Scale(float64(computers) / float64(s.Computers))
}

var (
	scenarioMu  sync.RWMutex
	scenarioReg = map[string]Scenario{}
)

// RegisterScenario adds a scenario to the registry. Names must be unique,
// non-empty, and free of the ':' separator reserved for parameterized
// selections.
func RegisterScenario(s Scenario) error {
	if s.Name == "" {
		return fmt.Errorf("workload: scenario with empty name")
	}
	if strings.ContainsAny(s.Name, ": \t\n") {
		return fmt.Errorf("workload: scenario name %q contains reserved characters", s.Name)
	}
	if s.Trace == nil {
		return fmt.Errorf("workload: scenario %q has no trace builder", s.Name)
	}
	scenarioMu.Lock()
	defer scenarioMu.Unlock()
	if _, dup := scenarioReg[s.Name]; dup {
		return fmt.Errorf("workload: scenario %q already registered", s.Name)
	}
	scenarioReg[s.Name] = s
	return nil
}

// mustRegisterScenario registers the built-in scenarios at init time.
func mustRegisterScenario(s Scenario) {
	if err := RegisterScenario(s); err != nil {
		panic(err)
	}
}

// Scenarios returns every registered scenario sorted by name.
func Scenarios() []Scenario {
	scenarioMu.RLock()
	defer scenarioMu.RUnlock()
	out := make([]Scenario, 0, len(scenarioReg))
	for _, s := range scenarioReg {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ScenarioNames returns the sorted registered names; parameterized
// scenarios are listed with their argument hint (e.g. "tracefile:<path>").
func ScenarioNames() []string {
	scs := Scenarios()
	names := make([]string, 0, len(scs))
	for _, s := range scs {
		if s.NeedsArg {
			names = append(names, s.Name+":<path>")
		} else {
			names = append(names, s.Name)
		}
	}
	return names
}

// LookupScenario resolves a scenario selection by name. Parameterized
// scenarios take their argument after a colon ("tracefile:day.csv").
// Unknown names error with the full registered list so CLI and API callers
// get an actionable message.
func LookupScenario(name string) (Scenario, error) {
	base, arg := name, ""
	if i := strings.IndexByte(name, ':'); i >= 0 {
		base, arg = name[:i], name[i+1:]
	}
	scenarioMu.RLock()
	s, ok := scenarioReg[base]
	scenarioMu.RUnlock()
	if !ok {
		return Scenario{}, fmt.Errorf("workload: unknown scenario %q (registered: %s)",
			name, strings.Join(ScenarioNames(), ", "))
	}
	if s.NeedsArg && arg == "" {
		return Scenario{}, fmt.Errorf("workload: scenario %q needs an argument, select it as %q", base, base+":<path>")
	}
	if !s.NeedsArg && arg != "" {
		return Scenario{}, fmt.Errorf("workload: scenario %q takes no argument (got %q)", base, arg)
	}
	if s.NeedsArg {
		s = s.bind(arg)
	}
	return s, nil
}

// bind specializes a parameterized scenario to its argument. Today only
// tracefile is parameterized; its builder replays the CSV at Arg.
func (s Scenario) bind(arg string) Scenario {
	s.Arg = arg
	s.Trace = func(int64) (*series.Series, error) { return readTraceFile(arg) }
	return s
}

// readTraceFile loads a CSV trace written by series.WriteCSV / hpmgen.
func readTraceFile(path string) (*series.Series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: tracefile: %w", err)
	}
	defer f.Close()
	tr, err := readTrace(f)
	if err != nil {
		return nil, fmt.Errorf("workload: tracefile %s: %w", path, err)
	}
	return tr, nil
}

// readTrace parses a CSV trace. The bytes come from outside the process,
// so an accepted trace is one the engine can run: at least one bin, a
// finite start and a finite positive step, finite non-negative counts.
func readTrace(r io.Reader) (*series.Series, error) {
	tr, err := series.ReadCSV(r)
	if err != nil {
		return nil, err
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("no rows")
	}
	if math.IsInf(tr.Start, 0) || math.IsNaN(tr.Start) || math.IsInf(tr.Step, 0) || !(tr.Step > 0) {
		return nil, fmt.Errorf("time column starts at %v in steps of %v, want a finite start and a finite step > 0", tr.Start, tr.Step)
	}
	for i, v := range tr.Values {
		if math.IsInf(v, 0) || !(v >= 0) {
			return nil, fmt.Errorf("row %d: arrival count %v is not a finite number >= 0", i, v)
		}
	}
	return tr, nil
}

// Built-in scenario constructors. Each is deterministic per seed; the new
// stress scenarios are natively short (a few hundred 30-second bins) so
// whole-registry sweeps stay affordable at full scale, while the paper's
// synthetic/wc98 day traces keep their published lengths.

func syntheticScenarioTrace(seed int64) (*series.Series, error) {
	cfg := DefaultSyntheticConfig()
	cfg.Seed = seed
	return Synthetic(cfg)
}

func wc98ScenarioTrace(seed int64) (*series.Series, error) {
	cfg := DefaultWC98Config()
	cfg.Seed = seed
	return WorldCup98Like(cfg)
}

// FlashCrowd builds the flashcrowd trace: a moderate noisy base load hit
// by a sudden arrival spike of 5-10x (drawn from the seed) that decays
// exponentially — the slashdot/news-event profile. bins is the trace
// length at 30-second bins; the spike lands at 15% of the trace with a
// decay constant of ~8% of the trace, so even trimmed runs see the crowd
// arrive and drain.
func FlashCrowd(bins int, seed int64) (*series.Series, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("workload: flashcrowd bins %d <= 0", bins)
	}
	rng := rand.New(rand.NewSource(seed))
	peak := 5 + 5*rng.Float64() // 5-10x spike
	s := series.New(0, 30, bins)
	base := 900.0
	spikeAt := float64(bins) * 0.15
	tau := math.Max(1, float64(bins)*0.08)
	for i := range s.Values {
		v := base * (1 + 0.05*rng.NormFloat64())
		if f := float64(i); f >= spikeAt {
			v *= 1 + (peak-1)*math.Exp(-(f-spikeAt)/tau)
		}
		s.Values[i] = v
	}
	s.ClampMin(0)
	return s, nil
}

// DiurnalNoisy builds the diurnal-noisy trace: the paper's synthetic day
// modulated by multiplicative lognormal noise (sigma in log space), so the
// controller sees the published structure under per-bin burstiness the
// additive-noise model cannot produce.
func DiurnalNoisy(sigma float64, seed int64) (*series.Series, error) {
	if sigma < 0 {
		return nil, fmt.Errorf("workload: diurnal-noisy sigma %v < 0", sigma)
	}
	cfg := DefaultSyntheticConfig()
	cfg.Seed = seed
	s, err := Synthetic(cfg)
	if err != nil {
		return nil, err
	}
	// A distinct stream from the additive-noise one: derive it from the
	// seed so the scenario stays deterministic per seed.
	rng := rand.New(rand.NewSource(seed ^ 0x6e6f697379)) // "noisy"
	for i := range s.Values {
		s.Values[i] *= math.Exp(sigma * rng.NormFloat64())
	}
	s.ClampMin(0)
	return s, nil
}

// Sawtooth builds ramp-and-drop cycles: load climbs linearly from lo to hi
// over period bins, then collapses back to lo — the scale-down chattering
// probe (square waves test reaction; sawtooths test tracking).
func Sawtooth(bins int, lo, hi float64, period int, seed int64) (*series.Series, error) {
	if bins <= 0 || period <= 0 {
		return nil, fmt.Errorf("workload: sawtooth bins %d / period %d must be positive", bins, period)
	}
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("workload: sawtooth range [%v, %v] invalid", lo, hi)
	}
	rng := rand.New(rand.NewSource(seed))
	s := series.New(0, 30, bins)
	for i := range s.Values {
		frac := float64(i%period) / float64(period)
		s.Values[i] = (lo + (hi-lo)*frac) * (1 + 0.03*rng.NormFloat64())
	}
	s.ClampMin(0)
	return s, nil
}

// heavyTailStoreConfig is the heavytail service-time mix: 5% of objects
// draw their full-speed demand from a truncated Pareto tail (alpha 1.3,
// capped at 1 s) instead of the uniform 10-25 ms body.
func heavyTailStoreConfig() StoreConfig {
	cfg := DefaultStoreConfig()
	cfg.TailFrac = 0.05
	cfg.TailAlpha = 1.3
	cfg.TailCap = 1.0
	return cfg
}

// failstormPlan is the failstorm failure plan: a correlated storm taking
// out computers 0-2 of module 0 (three of the §4.3 module's four) and
// computer 0 of module 1 when it exists, at 50% of the trace — mid-peak
// for the diurnal day — all repaired at 80%. Taking most of the module
// down guarantees the storm bites every policy regardless of which subset
// it keeps powered. Runners skip entries whose indices are not in the
// cluster.
func failstormPlan(tr *series.Series) []FailureEvent {
	span := tr.End() - tr.Start
	fail := 0.50 * span
	repair := 0.80 * span
	return []FailureEvent{
		{At: fail, Module: 0, Comp: 0},
		{At: fail, Module: 0, Comp: 1},
		{At: fail, Module: 0, Comp: 2},
		{At: fail, Module: 1, Comp: 0},
		{At: repair, Module: 0, Comp: 0, Repair: true},
		{At: repair, Module: 0, Comp: 1, Repair: true},
		{At: repair, Module: 0, Comp: 2, Repair: true},
		{At: repair, Module: 1, Comp: 0, Repair: true},
	}
}

func init() {
	mustRegisterScenario(Scenario{
		Name:        "synthetic",
		Computers:   4,
		Description: "the paper's §4.3 synthetic diurnal day (6400 30-s bins, segment-wise Gaussian noise)",
		Trace:       syntheticScenarioTrace,
	})
	mustRegisterScenario(Scenario{
		Name:        "wc98",
		Computers:   16,
		Description: "World-Cup-98-like day of §5.2 Fig. 6 (600 2-min bins, match-time plateau)",
		Trace:       wc98ScenarioTrace,
	})
	mustRegisterScenario(Scenario{
		Name:        "step",
		Computers:   4,
		Description: "square wave alternating 150/3600 requests per bin every 20 bins (scale-up/down probe)",
		Trace: func(int64) (*series.Series, error) {
			return StepLoad(480, 30, 150, 3600, 20)
		},
	})
	mustRegisterScenario(Scenario{
		Name:        "flashcrowd",
		Computers:   4,
		Description: "sudden 5-10x arrival spike with exponential decay over a moderate base (news-event burst)",
		Trace: func(seed int64) (*series.Series, error) {
			return FlashCrowd(480, seed)
		},
	})
	mustRegisterScenario(Scenario{
		Name:        "diurnal-noisy",
		Computers:   4,
		Description: "the §4.3 synthetic day under multiplicative lognormal noise (sigma 0.3 per bin)",
		Trace: func(seed int64) (*series.Series, error) {
			return DiurnalNoisy(0.3, seed)
		},
	})
	mustRegisterScenario(Scenario{
		Name:        "heavytail",
		Computers:   4,
		Description: "synthetic day against a Pareto-mixed service-time store (5% of objects, alpha 1.3, 1 s cap)",
		Trace:       syntheticScenarioTrace,
		Store:       heavyTailStoreConfig,
	})
	mustRegisterScenario(Scenario{
		Name:        "failstorm",
		Computers:   4,
		Description: "synthetic day with correlated computer failures at mid-peak (50% of trace), repaired at 80%",
		Trace:       syntheticScenarioTrace,
		Failures:    failstormPlan,
	})
	mustRegisterScenario(Scenario{
		Name:        "sawtooth",
		Computers:   4,
		Description: "linear ramp 150->3600 per 80-bin cycle with instant drop (tracking/chattering probe)",
		Trace: func(seed int64) (*series.Series, error) {
			return Sawtooth(480, 150, 3600, 80, seed)
		},
	})
	mustRegisterScenario(Scenario{
		Name:        "tracefile",
		Description: "replay a recorded CSV trace (hpmgen format) as a first-class scenario: tracefile:<path>",
		NeedsArg:    true,
		Trace: func(int64) (*series.Series, error) {
			return nil, fmt.Errorf("workload: tracefile scenario needs a path, select it as \"tracefile:<path>\"")
		},
	})
}
