package cluster

import (
	"fmt"
	"math/rand"

	"hierctl/internal/metrics"
	"hierctl/internal/workload"
)

// ModuleSpec groups computers into one module M_i of the hierarchy.
type ModuleSpec struct {
	// Name identifies the module.
	Name string
	// Computers lists the module's member machines.
	Computers []ComputerSpec
}

// Validate reports whether the module spec is usable.
func (m ModuleSpec) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("cluster: module with empty name")
	}
	if len(m.Computers) == 0 {
		return fmt.Errorf("cluster: module %s has no computers", m.Name)
	}
	seen := make(map[string]bool, len(m.Computers))
	for _, c := range m.Computers {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("cluster: module %s: %w", m.Name, err)
		}
		if seen[c.Name] {
			return fmt.Errorf("cluster: module %s has duplicate computer %s", m.Name, c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}

// Spec describes a whole cluster: the modules of Fig. 2(a).
type Spec struct {
	// Modules lists the cluster's modules.
	Modules []ModuleSpec
}

// Validate reports whether the cluster spec is usable.
func (s Spec) Validate() error {
	if len(s.Modules) == 0 {
		return fmt.Errorf("cluster: no modules")
	}
	seenM := make(map[string]bool, len(s.Modules))
	seenC := make(map[string]bool)
	for _, m := range s.Modules {
		if err := m.Validate(); err != nil {
			return err
		}
		if seenM[m.Name] {
			return fmt.Errorf("cluster: duplicate module %s", m.Name)
		}
		seenM[m.Name] = true
		for _, c := range m.Computers {
			if seenC[c.Name] {
				return fmt.Errorf("cluster: duplicate computer name %s across modules", c.Name)
			}
			seenC[c.Name] = true
		}
	}
	return nil
}

// Computers returns the total computer count.
func (s Spec) Computers() int {
	n := 0
	for _, m := range s.Modules {
		n += len(m.Computers)
	}
	return n
}

// Plant is the simulated cluster: all computers and the dispatcher. Each
// computer keeps its own energy books; the plant totals them. Construct
// with NewPlant.
type Plant struct {
	spec      Spec
	modules   [][]*Computer
	rng       *rand.Rand
	now       float64
	misroute  int64
	latencies *metrics.Histogram
}

// NewPlant builds the cluster in the all-off state at time 0. rng drives
// probabilistic request routing.
func NewPlant(spec Spec, rng *rand.Rand) (*Plant, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("cluster: nil rng")
	}
	p := &Plant{
		spec:      spec,
		modules:   make([][]*Computer, len(spec.Modules)),
		rng:       rng,
		latencies: metrics.DefaultLatencyHistogram(),
	}
	for i, m := range spec.Modules {
		p.modules[i] = make([]*Computer, len(m.Computers))
		for j, cs := range m.Computers {
			c, err := NewComputer(cs)
			if err != nil {
				return nil, err
			}
			c.SetResponseSink(p.latencies)
			p.modules[i][j] = c
		}
	}
	return p, nil
}

// Latencies exposes the plant-wide response-time histogram (one sample
// per completed request).
func (p *Plant) Latencies() *metrics.Histogram { return p.latencies }

// Spec returns the plant's cluster specification.
func (p *Plant) Spec() Spec { return p.spec }

// Now returns the plant's current simulation time.
func (p *Plant) Now() float64 { return p.now }

// Modules returns the number of modules.
func (p *Plant) Modules() int { return len(p.modules) }

// ModuleSize returns the number of computers in module i.
func (p *Plant) ModuleSize(i int) int { return len(p.modules[i]) }

// Computer returns the computer j of module i for observation and control.
// Like a slice index it panics out of range: callers hold indices they
// obtained from Modules and ModuleSize.
func (p *Plant) Computer(i, j int) *Computer { return p.modules[i][j] }

// checked is Computer for indices that arrive from outside — a failure plan
// or a caller's command — and so are reported, not trusted.
func (p *Plant) checked(i, j int) (*Computer, error) {
	if i < 0 || i >= len(p.modules) {
		return nil, fmt.Errorf("cluster: module index %d outside [0, %d)", i, len(p.modules))
	}
	if j < 0 || j >= len(p.modules[i]) {
		return nil, fmt.Errorf("cluster: computer index %d outside [0, %d) in module %d", j, len(p.modules[i]), i)
	}
	return p.modules[i][j], nil
}

// TotalEnergy sums the computers' energy in module-major order.
func (p *Plant) TotalEnergy() float64 {
	sum := 0.0
	for i := range p.modules {
		for _, c := range p.modules[i] {
			sum += c.Energy()
		}
	}
	return sum
}

// TotalSwitches sums the computers' power-ons.
func (p *Plant) TotalSwitches() int {
	sum := 0
	for i := range p.modules {
		for _, c := range p.modules[i] {
			sum += c.switches
		}
	}
	return sum
}

// Misroutes returns how many requests could not be routed per the supplied
// fractions (their targets were not accepting) and fell back to another
// accepting computer.
func (p *Plant) Misroutes() int64 { return p.misroute }

// PowerOn commands computer j of module i on, charging the transient
// switching cost if a fresh boot starts (the ‖Δα‖_W term of Eq. 14).
func (p *Plant) PowerOn(i, j int) error {
	c, err := p.checked(i, j)
	if err != nil {
		return err
	}
	fresh, err := c.PowerOn(p.now)
	if err != nil {
		return err
	}
	if fresh {
		c.switches++
		c.transient += c.spec.Power.SwitchCost
	}
	return nil
}

// PowerOff commands computer j of module i off (drain semantics).
func (p *Plant) PowerOff(i, j int) error {
	c, err := p.checked(i, j)
	if err != nil {
		return err
	}
	return c.PowerOff()
}

// SetFrequency selects DVFS operating point idx on computer j of module i.
func (p *Plant) SetFrequency(i, j, idx int) error {
	c, err := p.checked(i, j)
	if err != nil {
		return err
	}
	return c.SetFrequencyIndex(idx)
}

// Fail crashes computer j of module i (failure injection).
func (p *Plant) Fail(i, j int) error {
	c, err := p.checked(i, j)
	if err != nil {
		return err
	}
	c.Fail()
	return nil
}

// Repair restores a failed computer to Off.
func (p *Plant) Repair(i, j int) error {
	c, err := p.checked(i, j)
	if err != nil {
		return err
	}
	c.Repair()
	return nil
}

// Dispatch routes a batch of requests. gammaModules[i] is the fraction of
// requests sent to module i ({γ_i} of the L2 controller); gammaComputers[i][j]
// is the within-module fraction for computer j ({γ_ij} of the L1
// controller). Fractions are normalized internally; a request whose chosen
// target is not accepting falls back to any accepting computer (counted in
// Misroutes); if nothing accepts, the request queues on the target anyway
// — the global buffer never drops work. Requests are copied into the
// computers' queues; reqs is not retained.
//
//hpm:hotpath
func (p *Plant) Dispatch(reqs []workload.Request, gammaModules []float64, gammaComputers [][]float64) error {
	if len(gammaModules) != len(p.modules) {
		return fmt.Errorf("cluster: %d module fractions for %d modules", len(gammaModules), len(p.modules))
	}
	if len(gammaComputers) != len(p.modules) {
		return fmt.Errorf("cluster: %d computer fraction vectors for %d modules", len(gammaComputers), len(p.modules))
	}
	for i := range p.modules {
		if len(gammaComputers[i]) != len(p.modules[i]) {
			return fmt.Errorf("cluster: module %d has %d fractions for %d computers", i, len(gammaComputers[i]), len(p.modules[i]))
		}
	}
	for _, r := range reqs {
		i := weightedPick(p.rng, gammaModules)
		if i < 0 {
			i = p.rng.Intn(len(p.modules))
		}
		j := weightedPick(p.rng, gammaComputers[i])
		if j < 0 {
			j = p.rng.Intn(len(p.modules[i]))
		}
		c := p.modules[i][j]
		if !c.Accepting() {
			if alt := p.fallback(i); alt != nil {
				c = alt
				p.misroute++
			}
		}
		c.Enqueue(r.Arrival, r.Demand)
	}
	return nil
}

// fallback finds an accepting computer, preferring the module the request
// was destined for, then scanning the whole cluster.
func (p *Plant) fallback(module int) *Computer {
	for _, c := range p.modules[module] {
		if c.Accepting() {
			return c
		}
	}
	for i := range p.modules {
		for _, c := range p.modules[i] {
			if c.Accepting() {
				return c
			}
		}
	}
	return nil
}

// weightedPick samples an index proportional to weights; it returns -1 if
// all weights are zero or negative.
func weightedPick(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return -1
	}
	x := rng.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x <= 0 {
			return i
		}
	}
	// Floating-point tail: return the last positive weight.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return -1
}

// Advance simulates all computers to absolute time t1.
func (p *Plant) Advance(t1 float64) error {
	if t1 < p.now {
		return fmt.Errorf("cluster: advance to %v before now %v", t1, p.now)
	}
	for i := range p.modules {
		for _, c := range p.modules[i] {
			if err := c.Advance(t1); err != nil {
				return err
			}
		}
	}
	p.now = t1
	return nil
}

// FinishAccounting closes the energy integrals at the current time; call
// once at the end of a run before reading energies.
func (p *Plant) FinishAccounting() {
	for i := range p.modules {
		for _, c := range p.modules[i] {
			c.energy.FinishAt(p.now)
		}
	}
}

// OperationalComputers counts computers currently On or Booting — the
// "number of operational computers" series of Figs. 4 and 6.
func (p *Plant) OperationalComputers() int {
	n := 0
	for i := range p.modules {
		for _, c := range p.modules[i] {
			if c.Accepting() {
				n++
			}
		}
	}
	return n
}

// ModuleIntervalStats harvests and aggregates the interval statistics of
// module i's computers. The per-computer stats are returned alongside the
// aggregate (Eq. 9's abstraction map Ψ inputs). It is the allocating
// wrapper over ModuleIntervalStatsInto.
func (p *Plant) ModuleIntervalStats(i int) (agg IntervalStats, per []IntervalStats, err error) {
	return p.ModuleIntervalStatsInto(i, nil)
}

// ModuleIntervalStatsInto is ModuleIntervalStats harvesting into the
// caller's buffer: the per-computer stats overwrite dst (grown only when
// its capacity is short of the module size) and are returned as per, so a
// caller that passes the previous call's per back harvests without
// allocating.
//
//hpm:hotpath
func (p *Plant) ModuleIntervalStatsInto(i int, dst []IntervalStats) (agg IntervalStats, per []IntervalStats, err error) {
	if i < 0 || i >= len(p.modules) {
		return IntervalStats{}, nil, fmt.Errorf("cluster: module index %d outside [0, %d)", i, len(p.modules))
	}
	if cap(dst) < len(p.modules[i]) {
		dst = make([]IntervalStats, len(p.modules[i])) //hpm:alloc first harvest into a caller buffer; module sizes are fixed, so once per module
	}
	per = dst[:len(p.modules[i])]
	var respSum, demandSum float64
	for j, c := range p.modules[i] {
		st := c.TakeIntervalStats()
		per[j] = st
		agg.Arrived += st.Arrived
		agg.Completed += st.Completed
		agg.QueueLen += st.QueueLen
		// A computer that completed nothing reports zero means: no mass.
		respSum += st.MeanResponse * float64(st.Completed)
		demandSum += st.MeanDemand * float64(st.Completed)
		agg.Busy += st.Busy
	}
	if agg.Completed > 0 {
		agg.MeanResponse = respSum / float64(agg.Completed)
		agg.MeanDemand = demandSum / float64(agg.Completed)
	}
	agg.Busy /= float64(len(p.modules[i]))
	return agg, per, nil
}
