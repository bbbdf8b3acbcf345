package cluster

import (
	"math"
	"math/rand"
	"testing"

	"hierctl/internal/workload"
)

func twoModuleSpec() Spec {
	return Spec{Modules: []ModuleSpec{
		{Name: "M1", Computers: []ComputerSpec{testSpec("m1c1"), testSpec("m1c2")}},
		{Name: "M2", Computers: []ComputerSpec{testSpec("m2c1"), testSpec("m2c2")}},
	}}
}

func newPlant(t *testing.T, spec Spec) *Plant {
	t.Helper()
	p, err := NewPlant(spec, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func allOn(t *testing.T, p *Plant) {
	t.Helper()
	for i := 0; i < p.Modules(); i++ {
		for j := 0; j < p.ModuleSize(i); j++ {
			if err := p.PowerOn(i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.Advance(120); err != nil { // past boot
		t.Fatal(err)
	}
	// Clear boot-interval stats.
	for i := 0; i < p.Modules(); i++ {
		if _, _, err := p.ModuleIntervalStats(i); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	if err := twoModuleSpec().Validate(); err != nil {
		t.Fatalf("valid spec: %v", err)
	}
	bad := Spec{}
	if err := bad.Validate(); err == nil {
		t.Error("empty spec: want error")
	}
	dupModule := Spec{Modules: []ModuleSpec{
		{Name: "M", Computers: []ComputerSpec{testSpec("a")}},
		{Name: "M", Computers: []ComputerSpec{testSpec("b")}},
	}}
	if err := dupModule.Validate(); err == nil {
		t.Error("duplicate module name: want error")
	}
	dupComputer := Spec{Modules: []ModuleSpec{
		{Name: "M1", Computers: []ComputerSpec{testSpec("a")}},
		{Name: "M2", Computers: []ComputerSpec{testSpec("a")}},
	}}
	if err := dupComputer.Validate(); err == nil {
		t.Error("duplicate computer name across modules: want error")
	}
	dupWithin := Spec{Modules: []ModuleSpec{
		{Name: "M1", Computers: []ComputerSpec{testSpec("a"), testSpec("a")}},
	}}
	if err := dupWithin.Validate(); err == nil {
		t.Error("duplicate computer within module: want error")
	}
	if twoModuleSpec().Computers() != 4 {
		t.Error("Computers() != 4")
	}
}

func TestNewPlantValidation(t *testing.T) {
	if _, err := NewPlant(Spec{}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("invalid spec: want error")
	}
	if _, err := NewPlant(twoModuleSpec(), nil); err == nil {
		t.Error("nil rng: want error")
	}
}

func TestDispatchFractionsRespected(t *testing.T) {
	p := newPlant(t, twoModuleSpec())
	allOn(t, p)
	const n = 20000
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = workload.Request{Arrival: 120, Demand: 0.001}
	}
	// 80/20 across modules; uneven within modules.
	err := p.Dispatch(reqs, []float64{0.8, 0.2}, [][]float64{{0.5, 0.5}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	c00 := p.Computer(0, 0)
	c01 := p.Computer(0, 1)
	c10 := p.Computer(1, 0)
	c11 := p.Computer(1, 1)
	m1 := c00.QueueLen() + c01.QueueLen()
	m2 := c10.QueueLen() + c11.QueueLen()
	if frac := float64(m1) / n; math.Abs(frac-0.8) > 0.02 {
		t.Errorf("module 1 fraction = %v, want ≈0.8", frac)
	}
	if c11.QueueLen() != 0 {
		t.Errorf("computer with γ=0 received %d requests", c11.QueueLen())
	}
	if frac := float64(m2) / n; math.Abs(frac-0.2) > 0.02 {
		t.Errorf("module 2 fraction = %v, want ≈0.2", frac)
	}
}

func TestDispatchValidation(t *testing.T) {
	p := newPlant(t, twoModuleSpec())
	reqs := []workload.Request{{Arrival: 0, Demand: 1}}
	if err := p.Dispatch(reqs, []float64{1}, [][]float64{{1, 0}, {1, 0}}); err == nil {
		t.Error("wrong module fraction count: want error")
	}
	if err := p.Dispatch(reqs, []float64{0.5, 0.5}, [][]float64{{1, 0}}); err == nil {
		t.Error("wrong computer vector count: want error")
	}
	if err := p.Dispatch(reqs, []float64{0.5, 0.5}, [][]float64{{1}, {1, 0}}); err == nil {
		t.Error("wrong computer fraction count: want error")
	}
}

func TestDispatchFallbackOnNotAccepting(t *testing.T) {
	p := newPlant(t, twoModuleSpec())
	// Only m1c2 on; everything else off.
	if err := p.PowerOn(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Advance(120); err != nil {
		t.Fatal(err)
	}
	reqs := []workload.Request{{Arrival: 120, Demand: 1}, {Arrival: 120, Demand: 1}}
	// Fractions all point at the off computer m1c1.
	if err := p.Dispatch(reqs, []float64{1, 0}, [][]float64{{1, 0}, {1, 0}}); err != nil {
		t.Fatal(err)
	}
	c01 := p.Computer(0, 1)
	if c01.QueueLen() != 2 {
		t.Errorf("fallback target queue = %d, want 2", c01.QueueLen())
	}
	if p.Misroutes() != 2 {
		t.Errorf("Misroutes = %d, want 2", p.Misroutes())
	}
}

func TestDispatchZeroFractionsFallsBackToUniform(t *testing.T) {
	p := newPlant(t, twoModuleSpec())
	allOn(t, p)
	reqs := make([]workload.Request, 1000)
	for i := range reqs {
		reqs[i] = workload.Request{Arrival: 120, Demand: 0.001}
	}
	// All-zero fractions: requests still land somewhere.
	if err := p.Dispatch(reqs, []float64{0, 0}, [][]float64{{0, 0}, {0, 0}}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < p.Modules(); i++ {
		for j := 0; j < p.ModuleSize(i); j++ {
			c := p.Computer(i, j)
			total += c.QueueLen()
		}
	}
	if total != 1000 {
		t.Errorf("requests lost: %d of 1000 queued", total)
	}
}

func TestOperationalComputers(t *testing.T) {
	p := newPlant(t, twoModuleSpec())
	if got := p.OperationalComputers(); got != 0 {
		t.Errorf("initial operational = %d, want 0", got)
	}
	if err := p.PowerOn(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := p.OperationalComputers(); got != 1 { // booting counts
		t.Errorf("operational = %d, want 1 (booting counts)", got)
	}
	if err := p.Advance(120); err != nil {
		t.Fatal(err)
	}
	if err := p.PowerOff(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := p.OperationalComputers(); got != 0 {
		t.Errorf("operational after off = %d, want 0", got)
	}
}

func TestModuleIntervalStatsAggregation(t *testing.T) {
	p := newPlant(t, twoModuleSpec())
	allOn(t, p)
	for j := 0; j < 2; j++ {
		if err := p.SetFrequency(0, j, 1); err != nil {
			t.Fatal(err)
		}
	}
	reqs := []workload.Request{
		{Arrival: 120, Demand: 10},
		{Arrival: 120, Demand: 10},
	}
	if err := p.Dispatch(reqs, []float64{1, 0}, [][]float64{{0.5, 0.5}, {1, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := p.Advance(240); err != nil {
		t.Fatal(err)
	}
	agg, per, err := p.ModuleIntervalStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 2 {
		t.Fatalf("per-computer stats = %d entries, want 2", len(per))
	}
	if agg.Arrived != 2 || agg.Completed != 2 {
		t.Errorf("agg arrived/completed = %d/%d, want 2/2", agg.Arrived, agg.Completed)
	}
	if agg.MeanDemand != 10 {
		t.Errorf("agg MeanDemand = %v, want 10", agg.MeanDemand)
	}
	if _, _, err := p.ModuleIntervalStats(5); err == nil {
		t.Error("bad module index: want error")
	}
}

func TestPlantEnergyAccumulates(t *testing.T) {
	p := newPlant(t, twoModuleSpec())
	if err := p.PowerOn(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Advance(1000); err != nil {
		t.Fatal(err)
	}
	p.FinishAccounting()
	if p.TotalSwitches() != 1 {
		t.Errorf("switches = %d, want 1", p.TotalSwitches())
	}
	// Boot 120 s at 0.75 + 880 s at 0.75+0.25 (φ=0.5 idle draw) + switch 8.
	want := 120*0.75 + 880*(0.75+0.25) + 8
	if got := p.Computer(0, 0).Energy(); math.Abs(got-want) > 1e-6 {
		t.Errorf("Energy = %v, want %v", got, want)
	}
	if got := p.Computer(1, 1).Energy(); got != 0 {
		t.Errorf("off computer energy = %v, want 0", got)
	}

	// Additivity: whatever the computers went through, the plant's totals
	// are the module-major sums of theirs.
	if err := p.PowerOn(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.SetFrequency(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Advance(1500); err != nil {
		t.Fatal(err)
	}
	if err := p.PowerOff(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.PowerOn(0, 0); err != nil { // a second fresh boot
		t.Fatal(err)
	}
	if err := p.Advance(2000); err != nil {
		t.Fatal(err)
	}
	p.FinishAccounting()
	energy, switches := 0.0, 0
	for i := 0; i < p.Modules(); i++ {
		for j := 0; j < p.ModuleSize(i); j++ {
			energy += p.Computer(i, j).Energy()
			switches += p.Computer(i, j).Switches()
		}
	}
	if got := p.TotalEnergy(); got != energy || got <= want {
		t.Errorf("TotalEnergy = %v, want the computers' sum %v (> %v)", got, energy, want)
	}
	if got := p.TotalSwitches(); got != switches || got != 3 {
		t.Errorf("TotalSwitches = %d, want the computers' sum %d = 3", got, switches)
	}
}

func TestPlantFailRepair(t *testing.T) {
	p := newPlant(t, twoModuleSpec())
	allOn(t, p)
	if err := p.Fail(0, 0); err != nil {
		t.Fatal(err)
	}
	c := p.Computer(0, 0)
	if c.State() != Failed {
		t.Errorf("state = %v, want failed", c.State())
	}
	if got := p.OperationalComputers(); got != 3 {
		t.Errorf("operational = %d, want 3", got)
	}
	if err := p.Repair(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.PowerOn(0, 0); err != nil {
		t.Errorf("power on after repair: %v", err)
	}
}

func TestPlantIndexErrors(t *testing.T) {
	p := newPlant(t, twoModuleSpec())
	if err := p.PowerOff(9, 0); err == nil {
		t.Error("bad module: want error")
	}
	if err := p.Fail(0, 9); err == nil {
		t.Error("bad computer: want error")
	}
	if err := p.PowerOn(9, 0); err == nil {
		t.Error("PowerOn bad index: want error")
	}
	if err := p.SetFrequency(0, 9, 0); err == nil {
		t.Error("SetFrequency bad index: want error")
	}
	if err := p.Advance(-1); err == nil {
		t.Error("backwards advance: want error")
	}
}

func TestWeightedPick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		k := weightedPick(rng, []float64{1, 3, 0})
		if k < 0 || k == 2 {
			t.Fatalf("picked %d with zero weight", k)
		}
		counts[k]++
	}
	frac := float64(counts[1]) / 30000
	if math.Abs(frac-0.75) > 0.02 {
		t.Errorf("weight-3 fraction = %v, want ≈0.75", frac)
	}
	if got := weightedPick(rng, []float64{0, 0}); got != -1 {
		t.Errorf("all-zero weights = %d, want -1", got)
	}
	if got := weightedPick(rng, []float64{-1, -2}); got != -1 {
		t.Errorf("negative weights = %d, want -1", got)
	}
}

func TestStandardSpecs(t *testing.T) {
	for kind := 0; kind < 4; kind++ {
		cs, err := StandardComputer(kind, "x")
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if err := cs.Validate(); err != nil {
			t.Errorf("kind %d invalid: %v", kind, err)
		}
	}
	if _, err := StandardComputer(7, "x"); err == nil {
		t.Error("unknown kind: want error")
	}
	m, err := StandardModule("M1", "M1")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("standard module invalid: %v", err)
	}
	if len(m.Computers) != 4 {
		t.Errorf("standard module size = %d, want 4", len(m.Computers))
	}
	for _, size := range []int{6, 10} {
		sm, err := ScaledModule("M", "M", size)
		if err != nil {
			t.Fatal(err)
		}
		if err := sm.Validate(); err != nil {
			t.Errorf("scaled module %d invalid: %v", size, err)
		}
		if len(sm.Computers) != size {
			t.Errorf("scaled module size = %d, want %d", len(sm.Computers), size)
		}
	}
	if _, err := ScaledModule("M", "M", 0); err == nil {
		t.Error("zero size: want error")
	}
	for _, p := range []int{4, 5} {
		cl, err := StandardCluster(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Validate(); err != nil {
			t.Errorf("standard cluster %d invalid: %v", p, err)
		}
		if cl.Computers() != p*4 {
			t.Errorf("cluster computers = %d, want %d", cl.Computers(), p*4)
		}
	}
	if _, err := StandardCluster(0); err == nil {
		t.Error("zero modules: want error")
	}
	// Modules are heterogeneous: different first computer kinds.
	cl, err := StandardCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	f1 := cl.Modules[0].Computers[0].FrequenciesHz
	f2 := cl.Modules[1].Computers[0].FrequenciesHz
	if len(f1) == len(f2) && f1[0] == f2[0] {
		t.Error("modules are not heterogeneous")
	}
}

func TestConservationNoControlLoss(t *testing.T) {
	// Every dispatched request eventually completes when computers stay
	// on — conservation under drain/boot but no failures.
	p := newPlant(t, twoModuleSpec())
	allOn(t, p)
	rng := rand.New(rand.NewSource(9))
	total := 0
	timeNow := 120.0
	for step := 0; step < 20; step++ {
		n := rng.Intn(50)
		reqs := make([]workload.Request, n)
		for i := range reqs {
			reqs[i] = workload.Request{
				Arrival: timeNow + rng.Float64()*30,
				Demand:  0.01 + rng.Float64()*0.015,
			}
		}
		total += n
		if err := p.Dispatch(reqs, []float64{0.5, 0.5}, [][]float64{{0.5, 0.5}, {0.5, 0.5}}); err != nil {
			t.Fatal(err)
		}
		timeNow += 30
		if err := p.Advance(timeNow); err != nil {
			t.Fatal(err)
		}
	}
	// Long quiescent tail to finish everything.
	if err := p.Advance(timeNow + 3600); err != nil {
		t.Fatal(err)
	}
	completed := int64(0)
	for i := 0; i < p.Modules(); i++ {
		for j := 0; j < p.ModuleSize(i); j++ {
			c := p.Computer(i, j)
			completed += c.TotalCompleted()
		}
	}
	if completed != int64(total) {
		t.Errorf("completed %d of %d dispatched", completed, total)
	}
}
