// Package cluster implements the plant of Fig. 1(a): a cluster of
// heterogeneous DVFS-capable computers organized into modules, fed by a
// dispatcher from a global request buffer. Unlike the controllers' fluid
// model (internal/queue), the plant is a request-level simulation: every
// request is individually queued, served FCFS at the computer's current
// frequency, and timed, so controller decisions are evaluated under real
// model mismatch.
//
// Power-state semantics (docs/ARCHITECTURE.md, "§4 — the plant"):
// powering on takes BootDelay seconds (the control dead time of §1)
// during which the computer draws base power and serves nothing;
// powering off stops new routing immediately but the computer drains its
// local queue before going dark, so requests are never dropped by control
// actions (failures do drop).
package cluster

import (
	"fmt"
	"math"
	"sync"

	"hierctl/internal/ckpt"
	"hierctl/internal/metrics"
	"hierctl/internal/power"
)

// PowerState enumerates a computer's power states.
type PowerState int

// Power states. Off computers draw nothing; Booting computers draw base
// power but serve nothing; On computers serve and draw a + φ²; Draining
// computers refuse new work but serve their backlog at a + φ²; Failed
// computers are dark and have lost their queue.
const (
	PowerOff PowerState = iota + 1
	Booting
	PowerOn
	Draining
	Failed
)

// String returns the state name.
func (s PowerState) String() string {
	switch s {
	case PowerOff:
		return "off"
	case Booting:
		return "booting"
	case PowerOn:
		return "on"
	case Draining:
		return "draining"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("PowerState(%d)", int(s))
	}
}

// ComputerSpec describes one computer's hardware.
type ComputerSpec struct {
	// Name identifies the computer in reports.
	Name string
	// FrequenciesHz lists the discrete DVFS operating points in
	// ascending order (Fig. 3). The scaling factor of the i-th point is
	// FrequenciesHz[i]/FrequenciesHz[len-1].
	FrequenciesHz []float64
	// SpeedFactor scales this computer's service rate relative to the
	// store's nominal demands: effective full-speed processing time is
	// demand/SpeedFactor. It models the heterogeneous "processing
	// profiles" of §4.1. Must be > 0; 1 is nominal.
	SpeedFactor float64
	// Power is the computer's power model (base cost and switch cost).
	Power power.Model
	// BootDelaySeconds is the dead time between a power-on command and
	// the computer serving requests (§4.3 uses ≈2 min).
	BootDelaySeconds float64
}

// Validate reports whether the spec is usable.
func (s ComputerSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("cluster: computer with empty name")
	}
	if len(s.FrequenciesHz) == 0 {
		return fmt.Errorf("cluster: computer %s has no frequencies", s.Name)
	}
	prev := 0.0
	for i, f := range s.FrequenciesHz {
		if f <= prev {
			return fmt.Errorf("cluster: computer %s frequency %d (%v Hz) not ascending and positive", s.Name, i, f)
		}
		prev = f
	}
	if s.SpeedFactor <= 0 {
		return fmt.Errorf("cluster: computer %s speed factor %v <= 0", s.Name, s.SpeedFactor)
	}
	if err := s.Power.Validate(); err != nil {
		return fmt.Errorf("cluster: computer %s: %w", s.Name, err)
	}
	if s.BootDelaySeconds < 0 {
		return fmt.Errorf("cluster: computer %s boot delay %v < 0", s.Name, s.BootDelaySeconds)
	}
	return nil
}

// Phi returns the scaling factor of frequency index i.
func (s ComputerSpec) Phi(i int) float64 {
	return s.FrequenciesHz[i] / s.FrequenciesHz[len(s.FrequenciesHz)-1]
}

// PhiLadder returns all scaling factors in ascending order.
func (s ComputerSpec) PhiLadder() []float64 {
	out := make([]float64, len(s.FrequenciesHz))
	for i := range out {
		out[i] = s.Phi(i)
	}
	return out
}

type job struct {
	arrival float64
	demand  float64 // remaining full-speed seconds (at SpeedFactor 1)
}

// BlockJobs is the jobs one block of a computer's queue holds: 255 16-byte
// jobs and the link fill the runtime's 4096-byte size class exactly (256
// would spill into the 4864-byte class).
const BlockJobs = 255

// jobBlock is one link of a computer's FCFS queue.
type jobBlock struct {
	jobs [BlockJobs]job
	next *jobBlock
}

// blockPool holds the drained job blocks of every computer in the process,
// so a backlog borrows memory for as long as it lasts and a drained queue
// holds none. A block's jobs are always written before they are read, so a
// block is not cleared on its way back.
var blockPool = sync.Pool{New: func() any { return new(jobBlock) }}

// putBlock hands a drained block back to blockPool.
func putBlock(b *jobBlock) {
	b.next = nil
	blockPool.Put(b)
}

// IntervalStats summarizes one observation interval on one computer — the
// local state the L0/L1 controllers sample.
type IntervalStats struct {
	// Arrived counts requests routed to the computer in the interval.
	Arrived int
	// Completed counts requests finished in the interval.
	Completed int
	// MeanResponse is the mean response time (queueing + service) of
	// completed requests, seconds; 0 if none completed.
	MeanResponse float64
	// MeanDemand is the mean observed full-speed processing time of
	// completed requests, seconds — the controllers' c measurement.
	MeanDemand float64
	// QueueLen is the queue length at the end of the interval.
	QueueLen int
	// Busy is the fraction of the interval spent serving.
	Busy float64
}

// Checkpoint appends the interval's six fields.
func (s IntervalStats) Checkpoint(w *ckpt.Writer) {
	w.Int(int64(s.Arrived))
	w.Int(int64(s.Completed))
	w.Float(s.MeanResponse)
	w.Float(s.MeanDemand)
	w.Int(int64(s.QueueLen))
	w.Float(s.Busy)
}

// RestoreCheckpoint reads back what Checkpoint wrote.
func (s *IntervalStats) RestoreCheckpoint(r *ckpt.Reader) {
	s.Arrived = r.IntIn(math.MinInt32, math.MaxInt32, "arrivals")
	s.Completed = r.IntIn(math.MinInt32, math.MaxInt32, "completions")
	s.MeanResponse = r.Float()
	s.MeanDemand = r.Float()
	s.QueueLen = r.IntIn(math.MinInt32, math.MaxInt32, "queue length")
	s.Busy = r.Float()
}

// Computer is the request-level simulation of one cluster node. Construct
// with NewComputer; the zero value is not usable.
type Computer struct {
	spec  ComputerSpec
	state PowerState
	// bootDoneAt is the absolute time the current boot completes
	// (meaningful in state Booting).
	bootDoneAt float64
	freqIdx    int

	// The FCFS backlog is a list of pooled job blocks from first to last:
	// job 0 (in service) is first.jobs[head], the newest is
	// last.jobs[tail-1], and count jobs lie between. A block goes back to
	// blockPool as soon as service passes its end, so memory is bounded by
	// the current backlog — at most ⌈count/BlockJobs⌉+1 blocks, none when
	// the queue is empty — not by a past peak.
	first, last *jobBlock
	head, tail  int
	count       int
	headServed  float64 // full-speed seconds already served on the head job

	now float64

	// Interval accumulators, harvested by TakeIntervalStats.
	arrived     int
	completed   int
	respSum     float64
	demandSum   float64
	busySeconds float64
	intervalLen float64

	// Lifetime counters.
	totalCompleted int64
	totalDropped   int64

	// Energy books (§4.1): the integral of the power draw over the
	// computer's clock, plus one transient per fresh boot the plant
	// commanded (Plant.PowerOn books it).
	energy    metrics.TimeWeighted
	switches  int
	transient float64

	// sink receives every completed response time (optional).
	sink *metrics.Histogram
}

// NewComputer builds a computer in the PowerOff state at time 0 with the
// lowest frequency selected.
func NewComputer(spec ComputerSpec) (*Computer, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Computer{spec: spec, state: PowerOff}, nil
}

// Spec returns the computer's hardware description.
func (c *Computer) Spec() ComputerSpec { return c.spec }

// State returns the current power state.
func (c *Computer) State() PowerState { return c.state }

// Phi returns the current frequency scaling factor.
func (c *Computer) Phi() float64 { return c.spec.Phi(c.freqIdx) }

// QueueLen returns the number of queued (incl. in-service) requests.
func (c *Computer) QueueLen() int { return c.count }

// Accepting reports whether the dispatcher may route new requests here:
// true while On or Booting (work queues behind the boot, §4.2's
// anticipatory provisioning), false while Off, Draining, or Failed.
func (c *Computer) Accepting() bool { return c.state == PowerOn || c.state == Booting }

// Serving reports whether the computer is currently able to process work.
func (c *Computer) Serving() bool { return c.state == PowerOn || c.state == Draining }

// TotalCompleted returns the lifetime number of completed requests.
func (c *Computer) TotalCompleted() int64 { return c.totalCompleted }

// TotalDropped returns the lifetime number of requests lost to failures.
func (c *Computer) TotalDropped() int64 { return c.totalDropped }

// Energy returns the switch-on transients plus the power integral as far
// as it is closed: the constant-draw stretch Advance last entered stays
// open until the next one starts or Plant.FinishAccounting closes it at the
// plant's clock.
func (c *Computer) Energy() float64 { return c.energy.Total() + c.transient }

// Switches returns how many fresh boots the plant commanded.
func (c *Computer) Switches() int { return c.switches }

// SetResponseSink registers a histogram that receives every completed
// response time — the plant shares one across its computers so runs can
// report latency percentiles.
func (c *Computer) SetResponseSink(h *metrics.Histogram) { c.sink = h }

// SetFrequencyIndex selects a DVFS operating point. Changing frequency is
// immediate and costless (§4.1: "switching between different operating
// frequencies incurs negligible power-consumption overhead").
func (c *Computer) SetFrequencyIndex(i int) error {
	if i < 0 || i >= len(c.spec.FrequenciesHz) {
		return fmt.Errorf("cluster: %s frequency index %d outside [0, %d)", c.spec.Name, i, len(c.spec.FrequenciesHz))
	}
	c.freqIdx = i
	return nil
}

// PowerOn commands the computer on at time now. From Off it starts a boot
// that completes after BootDelaySeconds; from Draining it resumes
// accepting immediately (the hardware never went down); On and Booting are
// no-ops. Powering on a Failed computer is an error; Repair it first.
// It reports whether a fresh boot (with its transient cost) was started.
func (c *Computer) PowerOn(now float64) (freshBoot bool, err error) {
	switch c.state {
	case PowerOff:
		c.state = Booting
		c.bootDoneAt = now + c.spec.BootDelaySeconds
		if c.spec.BootDelaySeconds == 0 {
			c.state = PowerOn
		}
		return true, nil
	case Draining:
		c.state = PowerOn
		return false, nil
	case PowerOn, Booting:
		return false, nil
	case Failed:
		return false, fmt.Errorf("cluster: %s is failed; repair before power-on", c.spec.Name)
	default:
		return false, fmt.Errorf("cluster: %s in unknown state %v", c.spec.Name, c.state)
	}
}

// PowerOff commands the computer off. From On with backlog it drains
// first; with an empty queue it goes straight to Off. From Booting the
// boot is simply abandoned. Off/Draining are no-ops; Failed is an error.
func (c *Computer) PowerOff() error {
	switch c.state {
	case PowerOn:
		if c.QueueLen() > 0 {
			c.state = Draining
		} else {
			c.state = PowerOff
		}
		return nil
	case Booting:
		// Abandon the boot. Any queued work must be re-dispatched by the
		// caller; keep it and drain if present.
		if c.QueueLen() > 0 {
			c.state = Draining
		} else {
			c.state = PowerOff
		}
		return nil
	case PowerOff, Draining:
		return nil
	case Failed:
		return fmt.Errorf("cluster: %s is failed; cannot power off", c.spec.Name)
	default:
		return fmt.Errorf("cluster: %s in unknown state %v", c.spec.Name, c.state)
	}
}

// Fail crashes the computer at time now: the queue is lost (counted as
// drops) and the node goes dark until Repair.
func (c *Computer) Fail() {
	c.totalDropped += int64(c.count)
	for b := c.first; b != nil; {
		next := b.next
		putBlock(b)
		b = next
	}
	c.first, c.last = nil, nil
	c.head, c.tail, c.count = 0, 0, 0
	c.headServed = 0
	c.state = Failed
}

// Repair returns a Failed computer to Off so it can be powered on again.
// Repairing a healthy computer is a no-op.
func (c *Computer) Repair() {
	if c.state == Failed {
		c.state = PowerOff
	}
}

// Enqueue adds a request (arrival time, full-speed demand in seconds).
// Requests may be enqueued in any state — the dispatcher is responsible
// for routing only to Accepting computers; a guard here would hide
// dispatcher bugs.
//
//hpm:hotpath
func (c *Computer) Enqueue(arrival, demand float64) {
	switch {
	case c.last == nil:
		c.first = blockPool.Get().(*jobBlock)
		c.last, c.head, c.tail = c.first, 0, 0
	case c.tail == BlockJobs:
		c.last.next = blockPool.Get().(*jobBlock)
		c.last, c.tail = c.last.next, 0
	}
	c.last.jobs[c.tail] = job{arrival: arrival, demand: demand}
	c.tail++
	c.count++
	c.arrived++
}

// pop drops the head job, handing its block back once service has passed
// the block's end or the queue is empty.
func (c *Computer) pop() {
	c.head++
	c.count--
	if c.count == 0 {
		putBlock(c.first)
		c.first, c.last = nil, nil
		return
	}
	if c.head == BlockJobs {
		b := c.first
		c.first, c.head = b.next, 0
		putBlock(b)
	}
}

// effectiveRate returns demand-units served per second at the current
// operating point.
func (c *Computer) effectiveRate() float64 {
	return c.Phi() * c.spec.SpeedFactor
}

// Advance simulates the computer from its current time to t1, serving the
// queue FCFS and integrating its power draw.
func (c *Computer) Advance(t1 float64) error {
	if t1 < c.now {
		return fmt.Errorf("cluster: %s advance to %v before now %v", c.spec.Name, t1, c.now)
	}
	c.intervalLen += t1 - c.now
	for c.now < t1 {
		switch c.state {
		case PowerOff, Failed:
			c.energy.Observe(c.now, 0)
			c.now = t1
		case Booting:
			c.energy.Observe(c.now, c.spec.Power.Base)
			if c.bootDoneAt > t1 {
				c.now = t1
			} else {
				c.now = math.Max(c.now, c.bootDoneAt)
				c.state = PowerOn
			}
		case PowerOn, Draining:
			c.energy.Observe(c.now, c.spec.Power.Draw(c.Phi(), true))
			c.serve(t1)
			if c.state == Draining && c.QueueLen() == 0 {
				c.state = PowerOff
				continue // account the off stretch
			}
			c.now = t1
		default:
			return fmt.Errorf("cluster: %s in unknown state %v", c.spec.Name, c.state)
		}
	}
	return nil
}

// serve processes the FCFS queue from c.now to t1 at the current rate.
// On return c.now is the time service stopped (t1, or earlier if the
// queue drained).
//
//hpm:hotpath
func (c *Computer) serve(t1 float64) {
	rate := c.effectiveRate()
	for c.count > 0 {
		j := &c.first.jobs[c.head]
		start := c.now
		if j.arrival > start {
			if j.arrival >= t1 {
				break // nothing more arrives before t1
			}
			start = j.arrival
		}
		remaining := (j.demand - c.headServed) / rate
		if start+remaining <= t1 {
			done := start + remaining
			c.busySeconds += done - start
			c.recordCompletion(done-j.arrival, j.demand)
			c.now = done
			c.pop()
			c.headServed = 0
		} else {
			served := (t1 - start) * rate
			if served > 0 {
				c.headServed += served
				c.busySeconds += t1 - start
			}
			c.now = t1
			return
		}
	}
	// Queue drained (or nothing arrives before t1).
	if c.now < t1 {
		c.now = t1
	}
}

func (c *Computer) recordCompletion(response, demand float64) {
	c.completed++
	c.respSum += response
	if c.sink != nil {
		c.sink.Observe(response)
	}
	c.demandSum += demand
	c.totalCompleted++
}

// TakeIntervalStats returns the statistics accumulated since the previous
// call and resets the accumulators.
func (c *Computer) TakeIntervalStats() IntervalStats {
	st := IntervalStats{
		Arrived:   c.arrived,
		Completed: c.completed,
		QueueLen:  c.QueueLen(),
	}
	if c.completed > 0 {
		st.MeanResponse = c.respSum / float64(c.completed)
		st.MeanDemand = c.demandSum / float64(c.completed)
	}
	if c.intervalLen > 0 {
		st.Busy = c.busySeconds / c.intervalLen
	}
	c.arrived, c.completed = 0, 0
	c.respSum = 0
	c.demandSum = 0
	c.busySeconds = 0
	c.intervalLen = 0
	return st
}

// Checkpoint appends the computer's mutable state: power state, boot
// deadline, operating point, clock, the queued jobs with the service
// already given the head one, the interval accumulators, the lifetime
// counters and the energy books. The response sink is the plant's and is
// not written.
func (c *Computer) Checkpoint(w *ckpt.Writer) {
	w.Int(int64(c.state))
	w.Float(c.bootDoneAt)
	w.Int(int64(c.freqIdx))
	w.Float(c.now)
	w.Uint(uint64(c.count))
	for b, i, n := c.first, c.head, 0; n < c.count; n++ {
		if i == BlockJobs {
			b, i = b.next, 0
		}
		w.Float(b.jobs[i].arrival)
		w.Float(b.jobs[i].demand)
		i++
	}
	w.Float(c.headServed)
	w.Int(int64(c.arrived))
	w.Int(int64(c.completed))
	w.Float(c.respSum)
	w.Float(c.demandSum)
	w.Float(c.busySeconds)
	w.Float(c.intervalLen)
	w.Int(c.totalCompleted)
	w.Int(c.totalDropped)
	c.energy.Checkpoint(w)
	w.Int(int64(c.switches))
	w.Float(c.transient)
}

// RestoreCheckpoint replaces the computer's state with what Checkpoint
// wrote; the queue it held goes back to the pool first.
func (c *Computer) RestoreCheckpoint(r *ckpt.Reader) {
	c.state = PowerState(r.IntIn(int(PowerOff), int(Failed), "power state"))
	c.bootDoneAt = r.Float()
	c.freqIdx = r.IntIn(0, len(c.spec.FrequenciesHz)-1, "frequency index")
	c.now = r.Float()
	for b := c.first; b != nil; {
		next := b.next
		putBlock(b)
		b = next
	}
	c.first, c.last = nil, nil
	c.head, c.tail, c.count = 0, 0, 0
	for n := r.Count(2, "queued job"); n > 0; n-- {
		arrival, demand := r.Float(), r.Float()
		if math.IsNaN(arrival) || math.IsInf(arrival, 0) || !(demand >= 0) || math.IsInf(demand, 1) {
			r.Fail("queued job at %v demanding %v", arrival, demand)
			break
		}
		c.Enqueue(arrival, demand)
	}
	c.headServed = r.Float()
	c.arrived = r.IntIn(math.MinInt32, math.MaxInt32, "arrivals")
	c.completed = r.IntIn(math.MinInt32, math.MaxInt32, "completions")
	c.respSum = r.Float()
	c.demandSum = r.Float()
	c.busySeconds = r.Float()
	c.intervalLen = r.Float()
	c.totalCompleted = r.Int()
	c.totalDropped = r.Int()
	c.energy.RestoreCheckpoint(r)
	c.switches = r.IntIn(0, math.MaxInt32, "switches")
	c.transient = r.Float()
}
