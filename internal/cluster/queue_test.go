package cluster

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"hierctl/internal/race"
)

// sliceComputer is the FCFS reference the block queue is checked against:
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

// blocksFor is the most blocks a backlog of n jobs may hold: it fills
// ⌈n/BlockJobs⌉ of them, plus one when service has left the head block
// part-used.
func blocksFor(n int) int {
	if n == 0 {
		return 0
	}
	return (n+BlockJobs-1)/BlockJobs + 1
}

// blocksHeld counts the job blocks c's queue holds.
func blocksHeld(c *Computer) int {
	n := 0
	for b := c.first; b != nil; b = b.next {
		n++
	}
	return n
}

// TestComputerBlockQueueMatchesSliceQueue is the randomized FCFS oracle:
// random sequences of Enqueue bursts, Advance, SetFrequencyIndex, PowerOff
// (drain), PowerOn, Fail and Repair run through Computer and through the
// slice reference side by side. Bursts are sized so a backlog spans three
// blocks and more, and intervals so the computer is sometimes mid-job at
// the boundary, sometimes drained to empty and refilled. Interval
// statistics, queue lengths, states and lifetime counters must agree
// float-for-float after every step, and the queue must hold no more blocks
// than its backlog needs — none when empty.
//
//hpm:pin mechanics
func TestComputerBlockQueueMatchesSliceQueue(t *testing.T) {
	var spanned3, refilled, failedDeep bool
	for trial := 0; trial < 320; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		spec := testSpec("c")
		spec.SpeedFactor = 0.5 + rng.Float64()
		spec.BootDelaySeconds = float64(rng.Intn(3)) * 2
		c, err := NewComputer(spec)
		if err != nil {
			t.Fatal(err)
		}
		ref := &sliceComputer{spec: spec, state: PowerOff}
		now := 0.0
		emptied := false
		var arrivals []float64
		for step := 0; step < 120; step++ {
			switch op := rng.Intn(12); {
			case op < 2:
				if c.State() != Failed {
					if _, err := c.PowerOn(now); err != nil {
						t.Fatal(err)
					}
					ref.powerOn(now)
				}
			case op == 2:
				if c.State() != Failed {
					if err := c.PowerOff(); err != nil {
						t.Fatal(err)
					}
					ref.powerOff()
				}
			case op == 3 && rng.Intn(4) == 0:
				failedDeep = failedDeep || blocksHeld(c) >= 2
				c.Fail()
				ref.fail()
			case op == 4:
				c.Repair()
				ref.repair()
			case op == 5:
				idx := rng.Intn(len(spec.FrequenciesHz))
				if err := c.SetFrequencyIndex(idx); err != nil {
					t.Fatal(err)
				}
				ref.freqIdx = idx
			}
			// One dispatch interval: a burst sorted by arrival, then the
			// advance through it. Long intervals with small bursts drain
			// the queue; short ones with big bursts back it up.
			dt := []float64{0.05, 0.5, 3, 20}[rng.Intn(4)]
			burst := []int{0, 1, 5, 40, 150, 400, 900}[rng.Intn(7)]
			arrivals = arrivals[:0]
			for i := 0; i < burst; i++ {
				arrivals = append(arrivals, now+rng.Float64()*dt)
			}
			sort.Float64s(arrivals)
			for _, a := range arrivals {
				demand := 0.005 + 0.03*rng.Float64()
				c.Enqueue(a, demand)
				ref.enqueue(a, demand)
			}
			refilled = refilled || emptied && c.QueueLen() > 0
			spanned3 = spanned3 || blocksHeld(c) >= 3
			now += dt
			if err := c.Advance(now); err != nil {
				t.Fatal(err)
			}
			ref.advance(now)
			got, want := c.TakeIntervalStats(), ref.takeIntervalStats()
			if got != want {
				t.Fatalf("trial %d step %d: interval stats\n got %+v\nwant %+v", trial, step, got, want)
			}
			if c.State() != ref.state || c.QueueLen() != len(ref.queue) || c.headServed != ref.headServed {
				t.Fatalf("trial %d step %d: state %v/%v queue %d/%d headServed %v/%v", trial, step,
					c.State(), ref.state, c.QueueLen(), len(ref.queue), c.headServed, ref.headServed)
			}
			if c.TotalCompleted() != ref.totalCompleted || c.TotalDropped() != ref.totalDropped {
				t.Fatalf("trial %d step %d: lifetime counters diverged", trial, step)
			}
			if n, most := blocksHeld(c), blocksFor(c.QueueLen()); n > most || (c.QueueLen() > 0) != (n > 0) {
				t.Fatalf("trial %d step %d: %d blocks for a backlog of %d, want <= %d and none when empty", trial, step, n, c.QueueLen(), most)
			}
			emptied = emptied || c.QueueLen() == 0
		}
	}
	if !spanned3 || !refilled || !failedDeep {
		t.Fatalf("generator coverage: backlog over 3 blocks %v, refilled after draining %v, failed mid-backlog %v; want all",
			spanned3, refilled, failedDeep)
	}
}

// TestComputerQueueBounded is the uptime pin: 10^5 jobs through a computer
// that is mid-job at every Advance boundary (so it never passes through
// an idle instant) over a standing backlog of some 600 jobs, three blocks
// and a part. The queue must hold only the blocks that backlog needs — not
// the peak, not the jobs served since the computer last idled — recycle
// them through the pool without allocating in steady state, and hold none
// once it drains.
//
//hpm:pin mechanics
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
	if blocksHeld(c) != 0 {
		t.Fatalf("a new computer holds %d blocks, want 0", blocksHeld(c))
	}
	// A standing backlog of 600.5 jobs: the half job shifts the service
	// phase so every tick boundary falls inside a job.
	c.Enqueue(0, 0.01)
	for i := 0; i < 600; i++ {
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
		if c.QueueLen() == 0 || c.QueueLen() > 700 || c.headServed <= 0 {
			t.Fatalf("t=%v: backlog %d, head served %v — want busy mid-job with backlog in (0, 700]", now, c.QueueLen(), c.headServed)
		}
		if n, most := blocksHeld(c), blocksFor(c.QueueLen()); n > most {
			t.Fatalf("t=%v: %d blocks for a backlog of %d, want <= %d", now, n, c.QueueLen(), most)
		}
	}
	for i := 0; i < ticks/2; i++ {
		tick()
	}
	allocs := testing.AllocsPerRun(ticks/2-1, tick)
	if allocs != 0 && !race.Enabled { // the race detector's pool drops Puts
		t.Fatalf("%v allocs per %d-job tick after warm-up, want 0", allocs, perTick)
	}
	if c.TotalCompleted() < 1e5-700 {
		t.Fatalf("only %d jobs completed, want ~1e5", c.TotalCompleted())
	}
	if err := c.Advance(now + 60); err != nil {
		t.Fatal(err)
	}
	if c.QueueLen() != 0 || blocksHeld(c) != 0 {
		t.Fatalf("drained queue: backlog %d in %d blocks, want none", c.QueueLen(), blocksHeld(c))
	}
}
