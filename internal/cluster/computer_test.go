package cluster

import (
	"math"
	"testing"

	"hierctl/internal/metrics"
	"hierctl/internal/power"
)

// testSpec returns a simple computer: two frequencies (φ = 0.5, 1.0),
// nominal speed, base power 0.75, switch cost 8, 120 s boot.
func testSpec(name string) ComputerSpec {
	return ComputerSpec{
		Name:             name,
		FrequenciesHz:    []float64{1e9, 2e9},
		SpeedFactor:      1,
		Power:            power.DefaultModel(),
		BootDelaySeconds: 120,
	}
}

func newOn(t *testing.T, spec ComputerSpec) *Computer {
	t.Helper()
	c, err := NewComputer(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PowerOn(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(spec.BootDelaySeconds); err != nil {
		t.Fatal(err)
	}
	if c.State() != PowerOn {
		t.Fatalf("state after boot = %v, want on", c.State())
	}
	c.TakeIntervalStats() // reset accumulators so tests observe post-boot intervals
	return c
}

func TestComputerSpecValidation(t *testing.T) {
	base := testSpec("ok")
	if err := base.Validate(); err != nil {
		t.Fatalf("valid spec: %v", err)
	}
	cases := []func(*ComputerSpec){
		func(s *ComputerSpec) { s.Name = "" },
		func(s *ComputerSpec) { s.FrequenciesHz = nil },
		func(s *ComputerSpec) { s.FrequenciesHz = []float64{2e9, 1e9} },
		func(s *ComputerSpec) { s.FrequenciesHz = []float64{0, 1e9} },
		func(s *ComputerSpec) { s.SpeedFactor = 0 },
		func(s *ComputerSpec) { s.BootDelaySeconds = -1 },
		func(s *ComputerSpec) { s.Power = power.Model{Base: -1} },
	}
	for i, mutate := range cases {
		spec := base
		mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("mutation %d: want error", i)
		}
	}
}

func TestPhiLadder(t *testing.T) {
	spec := testSpec("c")
	if got := spec.Phi(0); got != 0.5 {
		t.Errorf("Phi(0) = %v, want 0.5", got)
	}
	if got := spec.Phi(1); got != 1 {
		t.Errorf("Phi(1) = %v, want 1", got)
	}
	ladder := spec.PhiLadder()
	if len(ladder) != 2 || ladder[0] != 0.5 || ladder[1] != 1 {
		t.Errorf("PhiLadder = %v", ladder)
	}
}

func TestFCFSResponseTimes(t *testing.T) {
	c := newOn(t, testSpec("c"))
	if err := c.SetFrequencyIndex(1); err != nil { // full speed
		t.Fatal(err)
	}
	// Two requests of 10 s demand arriving back to back at t=120.
	c.Enqueue(120, 10)
	c.Enqueue(120, 10)
	if err := c.Advance(220); err != nil {
		t.Fatal(err)
	}
	st := c.TakeIntervalStats()
	if st.Completed != 2 {
		t.Fatalf("Completed = %d, want 2", st.Completed)
	}
	// First responds at 10, second waits 10 then serves 10 → 20. Mean 15.
	if math.Abs(st.MeanResponse-15) > 1e-9 {
		t.Errorf("MeanResponse = %v, want 15", st.MeanResponse)
	}
	if st.MeanDemand != 10 {
		t.Errorf("MeanDemand = %v, want 10", st.MeanDemand)
	}
}

func TestFrequencyScalesService(t *testing.T) {
	c := newOn(t, testSpec("c"))
	if err := c.SetFrequencyIndex(0); err != nil { // φ = 0.5 → 2× slower
		t.Fatal(err)
	}
	c.Enqueue(120, 10)
	if err := c.Advance(220); err != nil {
		t.Fatal(err)
	}
	st := c.TakeIntervalStats()
	if st.Completed != 1 || math.Abs(st.MeanResponse-20) > 1e-9 {
		t.Errorf("completed=%d resp=%v, want 1 completed at 20 s", st.Completed, st.MeanResponse)
	}
}

func TestSpeedFactorScalesService(t *testing.T) {
	spec := testSpec("fast")
	spec.SpeedFactor = 2
	c := newOn(t, spec)
	if err := c.SetFrequencyIndex(1); err != nil {
		t.Fatal(err)
	}
	c.Enqueue(120, 10)
	if err := c.Advance(220); err != nil {
		t.Fatal(err)
	}
	st := c.TakeIntervalStats()
	if st.Completed != 1 || math.Abs(st.MeanResponse-5) > 1e-9 {
		t.Errorf("resp = %v, want 5 (2× speed)", st.MeanResponse)
	}
}

func TestPartialServiceAcrossIntervals(t *testing.T) {
	c := newOn(t, testSpec("c"))
	if err := c.SetFrequencyIndex(1); err != nil {
		t.Fatal(err)
	}
	c.Enqueue(120, 50)                     // 50 s of work
	if err := c.Advance(150); err != nil { // 30 s served
		t.Fatal(err)
	}
	st := c.TakeIntervalStats()
	if st.Completed != 0 || st.QueueLen != 1 {
		t.Fatalf("mid-service: completed=%d queue=%d, want 0/1", st.Completed, st.QueueLen)
	}
	if math.Abs(st.Busy-0.3/0.3*(30.0/30.0)) > 1e-9 && st.Busy != 1 {
		t.Errorf("Busy = %v, want 1.0", st.Busy)
	}
	if err := c.Advance(200); err != nil { // finishes at 170
		t.Fatal(err)
	}
	st = c.TakeIntervalStats()
	if st.Completed != 1 {
		t.Fatalf("Completed = %d, want 1", st.Completed)
	}
	if math.Abs(st.MeanResponse-50) > 1e-9 {
		t.Errorf("MeanResponse = %v, want 50", st.MeanResponse)
	}
	// Busy fraction of the second interval: 20 s of 50.
	if math.Abs(st.Busy-0.4) > 1e-9 {
		t.Errorf("Busy = %v, want 0.4", st.Busy)
	}
}

func TestFrequencyChangeMidService(t *testing.T) {
	c := newOn(t, testSpec("c"))
	if err := c.SetFrequencyIndex(0); err != nil { // half speed
		t.Fatal(err)
	}
	c.Enqueue(120, 20)                     // at φ=0.5 would take 40 s
	if err := c.Advance(140); err != nil { // serves 10 demand-units
		t.Fatal(err)
	}
	if err := c.SetFrequencyIndex(1); err != nil { // full speed for the rest
		t.Fatal(err)
	}
	if err := c.Advance(160); err != nil { // 10 remaining at φ=1 → done at 150
		t.Fatal(err)
	}
	st := c.TakeIntervalStats()
	if st.Completed != 1 || math.Abs(st.MeanResponse-30) > 1e-9 {
		t.Errorf("completed=%d resp=%v, want 1 at 30 s", st.Completed, st.MeanResponse)
	}
}

func TestBootDeadTime(t *testing.T) {
	c, err := NewComputer(testSpec("c"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetFrequencyIndex(1); err != nil { // full speed once booted
		t.Fatal(err)
	}
	fresh, err := c.PowerOn(0)
	if err != nil || !fresh {
		t.Fatalf("PowerOn: fresh=%v err=%v, want true nil", fresh, err)
	}
	if c.State() != Booting {
		t.Fatalf("state = %v, want booting", c.State())
	}
	if !c.Accepting() {
		t.Error("booting computer should accept (anticipatory routing)")
	}
	c.Enqueue(10, 5)
	if err := c.Advance(100); err != nil { // still booting (done at 120)
		t.Fatal(err)
	}
	st := c.TakeIntervalStats()
	if st.Completed != 0 || st.QueueLen != 1 {
		t.Fatalf("served during boot: completed=%d queue=%d", st.Completed, st.QueueLen)
	}
	if err := c.Advance(200); err != nil { // boot at 120, serve 5 s → done 125
		t.Fatal(err)
	}
	st = c.TakeIntervalStats()
	if st.Completed != 1 {
		t.Fatalf("Completed = %d, want 1 after boot", st.Completed)
	}
	// Response includes the boot wait: 125 − 10 = 115.
	if math.Abs(st.MeanResponse-115) > 1e-9 {
		t.Errorf("MeanResponse = %v, want 115", st.MeanResponse)
	}
}

func TestZeroBootDelayIsImmediate(t *testing.T) {
	spec := testSpec("c")
	spec.BootDelaySeconds = 0
	c, err := NewComputer(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PowerOn(0); err != nil {
		t.Fatal(err)
	}
	if c.State() != PowerOn {
		t.Errorf("state = %v, want on immediately", c.State())
	}
}

func TestPowerOnIdempotentAndRedundant(t *testing.T) {
	c := newOn(t, testSpec("c"))
	fresh, err := c.PowerOn(130)
	if err != nil || fresh {
		t.Errorf("redundant PowerOn: fresh=%v err=%v, want false nil", fresh, err)
	}
}

func TestDrainSemantics(t *testing.T) {
	c := newOn(t, testSpec("c"))
	if err := c.SetFrequencyIndex(1); err != nil {
		t.Fatal(err)
	}
	c.Enqueue(120, 30)
	if err := c.PowerOff(); err != nil {
		t.Fatal(err)
	}
	if c.State() != Draining {
		t.Fatalf("state = %v, want draining", c.State())
	}
	if c.Accepting() {
		t.Error("draining computer must not accept")
	}
	if !c.Serving() {
		t.Error("draining computer must keep serving")
	}
	if err := c.Advance(200); err != nil { // drains at 150
		t.Fatal(err)
	}
	if c.State() != PowerOff {
		t.Errorf("state after drain = %v, want off", c.State())
	}
	st := c.TakeIntervalStats()
	if st.Completed != 1 {
		t.Errorf("Completed = %d, want 1 (drained request)", st.Completed)
	}
	// Powering off an empty computer goes straight to Off.
	c2 := newOn(t, testSpec("c2"))
	if err := c2.PowerOff(); err != nil {
		t.Fatal(err)
	}
	if c2.State() != PowerOff {
		t.Errorf("empty PowerOff: state = %v, want off", c2.State())
	}
}

func TestDrainingResumesOnPowerOn(t *testing.T) {
	c := newOn(t, testSpec("c"))
	c.Enqueue(120, 1000)
	if err := c.PowerOff(); err != nil {
		t.Fatal(err)
	}
	fresh, err := c.PowerOn(125)
	if err != nil {
		t.Fatal(err)
	}
	if fresh {
		t.Error("resuming from drain must not charge a boot transient")
	}
	if c.State() != PowerOn {
		t.Errorf("state = %v, want on (no re-boot)", c.State())
	}
}

func TestFailDropsQueueAndRepairRestores(t *testing.T) {
	c := newOn(t, testSpec("c"))
	c.Enqueue(120, 5)
	c.Enqueue(121, 5)
	c.Fail()
	if c.State() != Failed {
		t.Fatalf("state = %v, want failed", c.State())
	}
	if c.QueueLen() != 0 {
		t.Error("failed computer kept its queue")
	}
	if c.TotalDropped() != 2 {
		t.Errorf("TotalDropped = %d, want 2", c.TotalDropped())
	}
	if _, err := c.PowerOn(130); err == nil {
		t.Error("PowerOn on failed computer: want error")
	}
	if err := c.PowerOff(); err == nil {
		t.Error("PowerOff on failed computer: want error")
	}
	c.Repair()
	if c.State() != PowerOff {
		t.Errorf("state after repair = %v, want off", c.State())
	}
	if _, err := c.PowerOn(200); err != nil {
		t.Errorf("PowerOn after repair: %v", err)
	}
}

func TestEnergyAccountingStates(t *testing.T) {
	c, err := NewComputer(testSpec("c"))
	if err != nil {
		t.Fatal(err)
	}
	// Off for 100 s: 0 energy.
	if err := c.Advance(100); err != nil {
		t.Fatal(err)
	}
	// Boot 120 s: base power 0.75 → 90 units.
	if _, err := c.PowerOn(100); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(220); err != nil {
		t.Fatal(err)
	}
	// On at φ=1 for 100 s idle: (0.75 + 1) × 100 = 175.
	if err := c.SetFrequencyIndex(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(320); err != nil {
		t.Fatal(err)
	}
	c.energy.FinishAt(320)
	want := 90.0 + 175.0
	if got := c.Energy(); math.Abs(got-want) > 1e-6 {
		t.Errorf("Energy = %v, want %v", got, want)
	}
}

func TestAdvanceBackwardsRejected(t *testing.T) {
	c := newOn(t, testSpec("c"))
	if err := c.Advance(50); err == nil {
		t.Error("backwards advance: want error")
	}
}

func TestSetFrequencyIndexBounds(t *testing.T) {
	c := newOn(t, testSpec("c"))
	if err := c.SetFrequencyIndex(-1); err == nil {
		t.Error("negative index: want error")
	}
	if err := c.SetFrequencyIndex(2); err == nil {
		t.Error("out-of-range index: want error")
	}
}

func TestIdleGapsBetweenArrivals(t *testing.T) {
	c := newOn(t, testSpec("c"))
	if err := c.SetFrequencyIndex(1); err != nil {
		t.Fatal(err)
	}
	c.Enqueue(130, 5) // served 130–135
	c.Enqueue(160, 5) // idle 135–160, served 160–165
	if err := c.Advance(200); err != nil {
		t.Fatal(err)
	}
	st := c.TakeIntervalStats()
	if st.Completed != 2 || math.Abs(st.MeanResponse-5) > 1e-9 {
		t.Errorf("completed=%d resp=%v, want 2 at 5 s each", st.Completed, st.MeanResponse)
	}
	// Busy: 10 s of the 80 s interval.
	if math.Abs(st.Busy-0.125) > 1e-9 {
		t.Errorf("Busy = %v, want 0.125", st.Busy)
	}
}

func TestLifetimeCounters(t *testing.T) {
	c := newOn(t, testSpec("c"))
	lifetime := metrics.DefaultLatencyHistogram()
	c.SetResponseSink(lifetime)
	if err := c.SetFrequencyIndex(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c.Enqueue(120+float64(i), 1)
	}
	if err := c.Advance(300); err != nil {
		t.Fatal(err)
	}
	if c.TotalCompleted() != 5 {
		t.Errorf("TotalCompleted = %d, want 5", c.TotalCompleted())
	}
	if lifetime.Count() != 5 {
		t.Errorf("response sink count = %d, want 5", lifetime.Count())
	}
	// Interval stats reset on Take; lifetime persists.
	c.TakeIntervalStats()
	st := c.TakeIntervalStats()
	if st.Completed != 0 {
		t.Error("interval stats not reset")
	}
	if c.TotalCompleted() != 5 {
		t.Error("lifetime counter was reset")
	}
}
