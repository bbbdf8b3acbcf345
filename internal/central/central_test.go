package central

import (
	"math"
	"testing"

	"hierctl/internal/cluster"
	"hierctl/internal/des"
	"hierctl/internal/power"
	"hierctl/internal/series"
	"hierctl/internal/workload"
)

func testComputer(name string) cluster.ComputerSpec {
	return cluster.ComputerSpec{
		Name:             name,
		FrequenciesHz:    []float64{0.5e9, 1e9, 1.5e9, 2e9},
		SpeedFactor:      1,
		Power:            power.DefaultModel(),
		BootDelaySeconds: 120,
	}
}

func testSpecs(n int) []cluster.ComputerSpec {
	out := make([]cluster.ComputerSpec, n)
	for j := range out {
		out[j] = testComputer("c" + string(rune('0'+j)))
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	base := DefaultConfig()
	if err := base.Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.NeighbourDepth = 0 },
	}
	for i, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: want error", i)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(DefaultConfig(), nil); err == nil {
		t.Error("no computers: want error")
	}
}

func TestDecideScalesWithLoad(t *testing.T) {
	ctl, err := New(DefaultConfig(), testSpecs(4))
	if err != nil {
		t.Fatal(err)
	}
	// Low load: scale down over repeated decisions, each from the last.
	on := 4
	var inForce *Decision
	for i := 0; i < 4; i++ {
		dec, err := ctl.Decide(Observation{
			QueueLens: []float64{0, 0, 0, 0},
			LambdaHat: 2,
			CHat:      0.0175,
			InForce:   inForce,
		})
		if err != nil {
			t.Fatal(err)
		}
		on = countOn(dec.Alpha)
		validateGamma(t, dec)
		inForce = &dec
	}
	if on != 1 {
		t.Errorf("computers on at trivial load = %d, want 1", on)
	}
	// Overload from one computer: scale up.
	dec, err := ctl.Decide(Observation{
		QueueLens: []float64{200, 0, 0, 0},
		LambdaHat: 150,
		CHat:      0.0175,
		InForce:   &Decision{Alpha: []bool{true, false, false, false}, Gamma: []float64{1, 0, 0, 0}, FreqIdx: []int{3, 3, 3, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if countOn(dec.Alpha) <= 1 {
		t.Errorf("computers on under overload = %d, want > 1", countOn(dec.Alpha))
	}
}

func validateGamma(t *testing.T, dec Decision) {
	t.Helper()
	sum := 0.0
	for j, g := range dec.Gamma {
		if !dec.Alpha[j] && g != 0 {
			t.Errorf("γ[%d] = %v on off computer", j, g)
		}
		sum += g
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("Σγ = %v", sum)
	}
}

func TestDecideRespectsAvailability(t *testing.T) {
	ctl, err := New(DefaultConfig(), testSpecs(3))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ctl.Decide(Observation{
		QueueLens: []float64{10, 10, 10},
		LambdaHat: 120,
		CHat:      0.0175,
		Available: []bool{true, false, true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Alpha[1] {
		t.Error("failed computer powered on")
	}
	if dec.Gamma[1] != 0 {
		t.Error("failed computer received load")
	}
}

func TestExploredGrowsWithClusterSize(t *testing.T) {
	// The paper's scalability claim: the flat controller's search space
	// grows super-linearly with n while the hierarchy's per-module cost
	// stays flat.
	exploredAt := func(n int) int {
		ctl, err := New(DefaultConfig(), testSpecs(n))
		if err != nil {
			t.Fatal(err)
		}
		queues := make([]float64, n)
		dec, err := ctl.Decide(Observation{
			QueueLens: queues,
			LambdaHat: float64(30 * n),
			Delta:     5,
			CHat:      0.0175,
		})
		if err != nil {
			t.Fatal(err)
		}
		return dec.Explored
	}
	e4, e8 := exploredAt(4), exploredAt(8)
	if e8 <= 2*e4 {
		t.Errorf("flat search did not grow super-linearly: n=4 → %d, n=8 → %d", e4, e8)
	}
}

func TestDecideValidation(t *testing.T) {
	ctl, err := New(DefaultConfig(), testSpecs(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Decide(Observation{QueueLens: []float64{1}, LambdaHat: 1, CHat: 0.0175}); err == nil {
		t.Error("queue size mismatch: want error")
	}
	if _, err := ctl.Decide(Observation{QueueLens: []float64{1, 1}, LambdaHat: 1, CHat: 0}); err == nil {
		t.Error("zero c-hat: want error")
	}
}

func TestRunClosedLoop(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{
		{Name: "M1", Computers: testSpecs(4)},
	}}
	trace := series.New(0, 30, 40)
	for i := range trace.Values {
		trace.Values[i] = 900 // 30 req/s
	}
	storeCfg := workload.DefaultStoreConfig()
	storeCfg.Objects = 300
	storeCfg.PopularCount = 30
	store, err := workload.NewStore(des.NewStream(2, "store"), storeCfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, trace, store, DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	total := int64(trace.Sum())
	if res.Completed < total*95/100 {
		t.Errorf("completed %d of %d", res.Completed, total)
	}
	if res.MeanResponse > 4 {
		t.Errorf("mean response %v above target", res.MeanResponse)
	}
	if res.ExploredPerStep <= 0 || res.DecideTimePerStep <= 0 {
		t.Error("overhead counters not recorded")
	}
	if res.Operational.Len() == 0 {
		t.Error("no operational series")
	}
}

func TestRunValidation(t *testing.T) {
	spec := cluster.Spec{Modules: []cluster.ModuleSpec{
		{Name: "M1", Computers: testSpecs(2)},
	}}
	storeCfg := workload.DefaultStoreConfig()
	store, err := workload.NewStore(des.NewStream(1, "store"), storeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, nil, store, DefaultRunnerConfig()); err == nil {
		t.Error("nil trace: want error")
	}
	bad := series.New(0, 45, 10)
	for i := range bad.Values {
		bad.Values[i] = 10
	}
	if _, err := Run(spec, bad, store, DefaultRunnerConfig()); err == nil {
		t.Error("misaligned trace: want error")
	}
}

// TestCentralPruningPreservesDecision pins the flat controller's pruned
// search over three successive observations, each deciding from the
// last's decision: each joint configuration (α,
// γ bits, frequencies) and explored count equals the recorded literal. An
// unpruned search picks the same configurations at the naive counts, so
// pruning changed no decision and never explores more.
//
//hpm:pin search
func TestCentralPruningPreservesDecision(t *testing.T) {
	obs := []Observation{
		{QueueLens: []float64{0, 0, 0, 0}, LambdaHat: 30, Delta: 5, CHat: 0.0175},
		{QueueLens: []float64{60, 10, 0, 5}, LambdaHat: 180, Delta: 40, CHat: 0.0175},
		{QueueLens: []float64{5, 5, 50, 0}, LambdaHat: 90, Delta: 20, CHat: 0.0175},
	}
	want := []struct {
		alpha           []bool
		gammaBits       []uint64
		freq            []int
		explored, naive int
	}{
		{
			[]bool{false, true, true, true},
			[]uint64{0, 0x3fd6666666666667, 0x3fd6666666666667, 0x3fd3333333333334},
			[]int{3, 2, 3, 3}, 471, 471,
		},
		{
			[]bool{true, true, true, true},
			[]uint64{0x3fd0000000000000, 0x3fc999999999999a, 0x3fd3333333333333, 0x3fd0000000000000},
			[]int{3, 3, 3, 3}, 343, 378,
		},
		{
			[]bool{false, true, true, true},
			[]uint64{0, 0x3fd6666666666667, 0x3fd6666666666667, 0x3fd3333333333334},
			[]int{3, 2, 3, 3}, 486, 486,
		},
	}
	ctl, err := New(DefaultConfig(), testSpecs(4))
	if err != nil {
		t.Fatal(err)
	}
	var inForce *Decision
	for step, o := range obs {
		o.InForce = inForce
		dec, err := ctl.Decide(o)
		if err != nil {
			t.Fatal(err)
		}
		inForce = &dec
		w := want[step]
		for j := range w.alpha {
			if dec.Alpha[j] != w.alpha[j] || math.Float64bits(dec.Gamma[j]) != w.gammaBits[j] || dec.FreqIdx[j] != w.freq[j] {
				t.Fatalf("step %d computer %d: (α %v, γ %v, u %d), want (%v, %v, %d)", step, j,
					dec.Alpha[j], dec.Gamma[j], dec.FreqIdx[j], w.alpha[j], math.Float64frombits(w.gammaBits[j]), w.freq[j])
			}
		}
		if dec.Explored != w.explored || dec.Explored > w.naive {
			t.Errorf("step %d: explored %d, want %d (naive %d)", step, dec.Explored, w.explored, w.naive)
		}
	}
}
