package cluster

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sliceComputer is the FCFS reference the ring queue is checked against:
// the same power-state machine and service arithmetic as Computer, over
// the plainest possible queue — a slice that drops its head by reslicing.
// Every float operation happens in the same order as in Computer.serve, so
// the comparison below is exact, not approximate.
type sliceComputer struct {
	spec       ComputerSpec
	state      PowerState
	bootDoneAt float64
	freqIdx    int
	queue      []job
	headServed float64
	now        float64

	arrived, completed       int
	respSum, demandSum       float64
	busySeconds, intervalLen float64

	totalCompleted, totalDropped int64
}

func (c *sliceComputer) powerOn(now float64) {
	switch c.state {
	case PowerOff:
		c.state = Booting
		c.bootDoneAt = now + c.spec.BootDelaySeconds
		if c.spec.BootDelaySeconds == 0 {
			c.state = PowerOn
		}
	case Draining:
		c.state = PowerOn
	}
}

func (c *sliceComputer) powerOff() {
	if c.state == PowerOn || c.state == Booting {
		c.state = PowerOff
		if len(c.queue) > 0 {
			c.state = Draining
		}
	}
}

func (c *sliceComputer) fail() {
	c.totalDropped += int64(len(c.queue))
	c.queue = nil
	c.headServed = 0
	c.state = Failed
}

func (c *sliceComputer) repair() {
	if c.state == Failed {
		c.state = PowerOff
	}
}

func (c *sliceComputer) enqueue(arrival, demand float64) {
	c.queue = append(c.queue, job{arrival: arrival, demand: demand})
	c.arrived++
}

func (c *sliceComputer) advance(t1 float64) {
	c.intervalLen += t1 - c.now
	for c.now < t1 {
		switch c.state {
		case PowerOff, Failed:
			c.now = t1
		case Booting:
			if c.bootDoneAt > t1 {
				c.now = t1
			} else {
				c.now = math.Max(c.now, c.bootDoneAt)
				c.state = PowerOn
			}
		case PowerOn, Draining:
			c.serve(t1)
			if c.state == Draining && len(c.queue) == 0 {
				c.state = PowerOff
				continue
			}
			c.now = t1
		}
	}
}

func (c *sliceComputer) serve(t1 float64) {
	rate := c.spec.Phi(c.freqIdx) * c.spec.SpeedFactor
	for len(c.queue) > 0 {
		j := c.queue[0]
		start := c.now
		if j.arrival > start {
			if j.arrival >= t1 {
				break
			}
			start = j.arrival
		}
		remaining := (j.demand - c.headServed) / rate
		if start+remaining <= t1 {
			done := start + remaining
			c.busySeconds += done - start
			response := done - j.arrival
			c.completed++
			c.respSum += response
			c.demandSum += j.demand
			c.totalCompleted++
			c.now = done
			c.queue = c.queue[1:]
			c.headServed = 0
		} else {
			if served := (t1 - start) * rate; served > 0 {
				c.headServed += served
				c.busySeconds += t1 - start
			}
			c.now = t1
			return
		}
	}
	if c.now < t1 {
		c.now = t1
	}
}

func (c *sliceComputer) takeIntervalStats() IntervalStats {
	st := IntervalStats{Arrived: c.arrived, Completed: c.completed, QueueLen: len(c.queue)}
	if c.completed > 0 {
		st.MeanResponse = c.respSum / float64(c.completed)
		st.MeanDemand = c.demandSum / float64(c.completed)
	}
	if c.intervalLen > 0 {
		st.Busy = c.busySeconds / c.intervalLen
	}
	c.arrived, c.completed = 0, 0
	c.respSum, c.demandSum, c.busySeconds, c.intervalLen = 0, 0, 0, 0
	return st
}

// TestComputerRingMatchesSliceQueue is the randomized FCFS oracle: random
// sequences of Enqueue bursts, Advance, SetFrequencyIndex, PowerOff (drain),
// PowerOn, Fail and Repair run through Computer and through the slice
// reference side by side. Bursts are sized so the ring grows while it is
// wrapped, and intervals so the computer is sometimes mid-job at the
// boundary and sometimes idle. Interval statistics, queue lengths, states
// and lifetime counters must agree float-for-float after every step.
func TestComputerRingMatchesSliceQueue(t *testing.T) {
	wrappedGrowth := false
	for trial := 0; trial < 320; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		spec := testSpec("c")
		spec.SpeedFactor = 0.5 + rng.Float64()
		spec.BootDelaySeconds = float64(rng.Intn(3)) * 2
		ring, err := NewComputer(spec)
		if err != nil {
			t.Fatal(err)
		}
		ref := &sliceComputer{spec: spec, state: PowerOff}
		now := 0.0
		var arrivals []float64
		for step := 0; step < 120; step++ {
			switch op := rng.Intn(12); {
			case op < 2:
				if ring.State() != Failed {
					if _, err := ring.PowerOn(now); err != nil {
						t.Fatal(err)
					}
					ref.powerOn(now)
				}
			case op == 2:
				if ring.State() != Failed {
					if err := ring.PowerOff(); err != nil {
						t.Fatal(err)
					}
					ref.powerOff()
				}
			case op == 3 && rng.Intn(4) == 0:
				ring.Fail()
				ref.fail()
			case op == 4:
				ring.Repair()
				ref.repair()
			case op == 5:
				idx := rng.Intn(len(spec.FrequenciesHz))
				if err := ring.SetFrequencyIndex(idx); err != nil {
					t.Fatal(err)
				}
				ref.freqIdx = idx
			}
			// One dispatch interval: a burst sorted by arrival, then the
			// advance through it. Long intervals with small bursts drain
			// the queue; short ones with big bursts back it up.
			dt := []float64{0.05, 0.5, 3, 20}[rng.Intn(4)]
			burst := []int{0, 1, 5, 40, 150}[rng.Intn(5)]
			arrivals = arrivals[:0]
			for i := 0; i < burst; i++ {
				arrivals = append(arrivals, now+rng.Float64()*dt)
			}
			sort.Float64s(arrivals)
			for _, a := range arrivals {
				if ring.count == len(ring.queue) && ring.head != 0 {
					wrappedGrowth = true
				}
				demand := 0.005 + 0.03*rng.Float64()
				ring.Enqueue(a, demand)
				ref.enqueue(a, demand)
			}
			now += dt
			if err := ring.Advance(now); err != nil {
				t.Fatal(err)
			}
			ref.advance(now)
			got, want := ring.TakeIntervalStats(), ref.takeIntervalStats()
			if got != want {
				t.Fatalf("trial %d step %d: interval stats\n got %+v\nwant %+v", trial, step, got, want)
			}
			if ring.State() != ref.state || ring.QueueLen() != len(ref.queue) || ring.headServed != ref.headServed {
				t.Fatalf("trial %d step %d: state %v/%v queue %d/%d headServed %v/%v", trial, step,
					ring.State(), ref.state, ring.QueueLen(), len(ref.queue), ring.headServed, ref.headServed)
			}
			if ring.TotalCompleted() != ref.totalCompleted || ring.TotalDropped() != ref.totalDropped {
				t.Fatalf("trial %d step %d: lifetime counters diverged", trial, step)
			}
			if n := len(ring.queue); n&(n-1) != 0 {
				t.Fatalf("trial %d step %d: ring capacity %d is not a power of two", trial, step, n)
			}
		}
	}
	if !wrappedGrowth {
		t.Fatal("no trial grew the ring while it was wrapped; the generator no longer covers the unroll")
	}
}

// TestComputerQueueBounded is the uptime pin: 10^5 jobs through a computer
// that is mid-job at every Advance boundary (so it never passes through
// an idle instant) with a backlog that never exceeds 64. The queue's
// memory must be set by that backlog — not by the jobs served since the
// computer last idled — and steady-state Enqueue/serve must not allocate.
func TestComputerQueueBounded(t *testing.T) {
	spec := testSpec("c")
	spec.BootDelaySeconds = 0
	c, err := NewComputer(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PowerOn(0); err != nil {
		t.Fatal(err)
	}
	if err := c.SetFrequencyIndex(1); err != nil {
		t.Fatal(err)
	}
	// A standing backlog of 20.5 jobs: the half job shifts the service
	// phase so every tick boundary falls inside a job.
	c.Enqueue(0, 0.01)
	for i := 0; i < 20; i++ {
		c.Enqueue(0, 0.02)
	}
	const perTick, ticks = 50, 2000 // 50 × 0.02 s = exactly one tick of work per tick
	now := 0.0
	tick := func() {
		for i := 0; i < perTick; i++ {
			c.Enqueue(now+float64(i)/perTick, 0.02)
		}
		now++
		if err := c.Advance(now); err != nil {
			t.Fatal(err)
		}
		if c.QueueLen() == 0 || c.QueueLen() > 64 || c.headServed <= 0 {
			t.Fatalf("t=%v: backlog %d, head served %v — want busy mid-job with backlog in (0, 64]", now, c.QueueLen(), c.headServed)
		}
	}
	for i := 0; i < ticks/2; i++ {
		tick()
	}
	if allocs := testing.AllocsPerRun(ticks/2-1, tick); allocs != 0 {
		t.Fatalf("%v allocs per %d-job tick after warm-up, want 0", allocs, perTick)
	}
	if c.TotalCompleted() < 1e5-64 {
		t.Fatalf("only %d jobs completed, want ~1e5", c.TotalCompleted())
	}
	if got := cap(c.queue); got > 128 {
		t.Fatalf("queue capacity %d after %d jobs with backlog <= 64, want <= 128", got, c.TotalCompleted())
	}
}
