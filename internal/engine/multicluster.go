package engine

import (
	"fmt"
	"math"
	"sort"

	"hierctl/internal/series"
)

// MultiCluster advances N harnesses under one shared clock and runs a
// cross-cluster L3 layer on top of them: every L3 period it observes each
// cluster's completed window (arrivals, completions, response) and
// reallocates a shared operational-computer budget across the clusters,
// pushing the per-cluster caps down through engine.Budgeted.
//
// This is the layer the paper's hierarchy stops short of: L2 balances
// modules inside one cluster; L3 balances whole clusters inside a shared
// power/capacity envelope. It exists because all three policies now run on
// the same harness — any Budgeted policy can be a member.
//
// Determinism: members advance strictly in (NextTickTime, member index)
// order, every member pauses at each L3 boundary before the reallocation
// runs, and each member keeps its own RNG streams — so a MultiCluster run
// is reproducible for a given (members, policy, budget, period) tuple, and
// each member's results are independent of the others except through the
// budgets the L3 policy assigns.
type MultiCluster struct {
	members []Member
	l3      L3Policy
	budget  int
	l3Every []int // member ticks per L3 period

	// prev holds each member's WindowTotals at the previous boundary.
	prev []Interval

	events []L3Event
	ran    bool
}

// Member is one cluster under the shared clock: a harness and the trace
// feeding it. The member's policy (Harness.Policy) receives the L3 budget
// when it implements Budgeted; members whose policies do not are still
// advanced and observed but keep their own provisioning.
type Member struct {
	// Name identifies the cluster in observations and events.
	Name string
	// Harness is the cluster's simulation, not yet advanced past Init.
	Harness *Harness
	// Trace is the member's full workload plan; its bins are pushed as the
	// shared clock reaches them.
	Trace *series.Series
}

// L3Obs is what the L3 policy sees about one cluster at a reallocation
// boundary: the window since the previous boundary — the difference of two
// Harness.WindowTotals, so the view the member's own policy had of it —
// plus capacity state.
type L3Obs struct {
	Name string
	// Arrived and Completed count the window's requests; MeanResponse is
	// the window's completion-weighted mean response time (0 when nothing
	// completed).
	Arrived      int64
	Completed    int64
	MeanResponse float64
	// Operational and Computers are the cluster's current on/booting count
	// and its total size.
	Operational int
	Computers   int
	// Done marks members whose trace is exhausted (their budget share can
	// be released to the others).
	Done bool
}

// L3Policy decides the cross-cluster budget split at each L3 boundary.
type L3Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Allocate splits budget operational computers across the observed
	// clusters; the returned slice is index-aligned with obs.
	Allocate(round int, budget int, obs []L3Obs) ([]int, error)
}

// L3Event records one reallocation for inspection and tests.
type L3Event struct {
	// Round counts L3 boundaries from 1; Time is the boundary on the
	// shared control clock (round × L3 period, pre-roll excluded).
	Round int
	Time  float64
	// Arrived holds each cluster's window arrivals (the allocation input);
	// Budgets holds the resulting per-cluster caps, index-aligned with the
	// members.
	Arrived []int64
	Budgets []int
}

// NewMultiCluster validates the members against the shared L3 cadence:
// every member's control period must tile l3PeriodSeconds exactly, so all
// members pause on the same boundary.
func NewMultiCluster(members []Member, l3 L3Policy, budget int, l3PeriodSeconds float64) (*MultiCluster, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("engine: no clusters")
	}
	if l3 == nil {
		return nil, fmt.Errorf("engine: nil L3 policy")
	}
	if budget < 1 {
		return nil, fmt.Errorf("engine: budget %d < 1", budget)
	}
	mc := &MultiCluster{
		members: members,
		l3:      l3,
		budget:  budget,
		l3Every: make([]int, len(members)),
		prev:    make([]Interval, len(members)),
	}
	for idx, mem := range members {
		if mem.Harness == nil {
			return nil, fmt.Errorf("engine: cluster %q has no harness", mem.Name)
		}
		if mem.Trace == nil || mem.Trace.Len() == 0 {
			return nil, fmt.Errorf("engine: cluster %q has an empty trace", mem.Name)
		}
		every, err := series.SubSteps(l3PeriodSeconds, mem.Harness.cfg.PeriodSeconds)
		if err != nil {
			return nil, fmt.Errorf("engine: cluster %q: L3 period %vs is not a multiple of its control period %vs",
				mem.Name, l3PeriodSeconds, mem.Harness.cfg.PeriodSeconds)
		}
		mc.l3Every[idx] = every
	}
	return mc, nil
}

// Run advances all members to completion under the shared clock,
// reallocating the budget at every L3 boundary, then finishes each
// harness (drain + final accounting). Results are read per member
// afterwards (Harness.Totals or the policy's own record).
func (mc *MultiCluster) Run() error {
	if mc.ran {
		return fmt.Errorf("engine: multi-cluster already ran")
	}
	mc.ran = true
	for round := 1; ; round++ {
		// Advance every live member to this round's boundary, one tick at a
		// time, always picking the earliest (NextTickTime, index) next —
		// the shared-clock merge of the members' event streams.
		for {
			best := -1
			var bestT float64
			for idx, mem := range mc.members {
				h := mem.Harness
				if h.Done() || h.Ticks() >= round*mc.l3Every[idx] {
					continue
				}
				if t := h.NextTickTime(); best == -1 || t < bestT {
					best, bestT = idx, t
				}
			}
			if best == -1 {
				break
			}
			h := mc.members[best].Harness
			if h.Bins()*h.SubSteps() == h.Ticks() {
				if err := h.PushBin(mc.members[best].Trace.Values[h.Bins()]); err != nil {
					return fmt.Errorf("engine: cluster %q: %w", mc.members[best].Name, err)
				}
			}
			if err := h.Tick(); err != nil {
				return fmt.Errorf("engine: cluster %q: %w", mc.members[best].Name, err)
			}
		}
		allDone := true
		for _, mem := range mc.members {
			if !mem.Harness.Done() {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}

		// Every live member is paused at the boundary: observe the windows
		// and reallocate.
		obs := make([]L3Obs, len(mc.members))
		arrived := make([]int64, len(mc.members))
		for idx, mem := range mc.members {
			now, prev := mem.Harness.WindowTotals(), mc.prev[idx]
			mc.prev[idx] = now
			window := Interval{
				Arrived:   now.Arrived - prev.Arrived,
				Completed: now.Completed - prev.Completed,
				RespMass:  now.RespMass - prev.RespMass,
			}
			plant := mem.Harness.Plant()
			total := 0
			for i := 0; i < plant.Modules(); i++ {
				total += plant.ModuleSize(i)
			}
			arrived[idx] = int64(window.Arrived)
			obs[idx] = L3Obs{
				Name:         mem.Name,
				Arrived:      int64(window.Arrived),
				Completed:    int64(window.Completed),
				MeanResponse: window.MeanResponse(),
				Operational:  plant.OperationalComputers(),
				Computers:    total,
				Done:         mem.Harness.Done(),
			}
		}
		budgets, err := mc.l3.Allocate(round, mc.budget, obs)
		if err != nil {
			return err
		}
		if len(budgets) != len(mc.members) {
			return fmt.Errorf("engine: L3 policy returned %d budgets for %d clusters", len(budgets), len(mc.members))
		}
		for idx, mem := range mc.members {
			if b, ok := mem.Harness.Policy().(Budgeted); ok {
				b.SetBudget(budgets[idx])
			}
		}
		period := mc.members[0].Harness.cfg.PeriodSeconds * float64(mc.l3Every[0])
		mc.events = append(mc.events, L3Event{
			Round:   round,
			Time:    float64(round) * period,
			Arrived: arrived,
			Budgets: budgets,
		})
	}
	for _, mem := range mc.members {
		if err := mem.Harness.Finish(); err != nil {
			return fmt.Errorf("engine: cluster %q: %w", mem.Name, err)
		}
	}
	return nil
}

// Events returns the reallocation history in boundary order.
func (mc *MultiCluster) Events() []L3Event { return mc.events }

// ProportionalShare is the reference L3 policy: the budget is split
// proportionally to each window's arrivals by the largest-remainder
// method, with a guaranteed floor per live cluster and each share capped
// at the cluster's size. Clusters whose traces are exhausted get 0 — their
// share flows back to the live ones. Ties break on member index, so the
// split is deterministic.
type ProportionalShare struct {
	// MinPerCluster is the floor each live cluster keeps regardless of
	// load (default 1) — a cluster starved to zero could never observe
	// arrivals and win budget back.
	MinPerCluster int
}

// Name implements L3Policy.
func (p ProportionalShare) Name() string { return "proportional-share" }

// Allocate implements L3Policy.
func (p ProportionalShare) Allocate(round int, budget int, obs []L3Obs) ([]int, error) {
	n := len(obs)
	if n == 0 {
		return nil, fmt.Errorf("engine: proportional share over no clusters")
	}
	floor := p.MinPerCluster
	if floor < 1 {
		floor = 1
	}
	out := make([]int, n)
	caps := make([]int, n)
	remaining := budget
	// Floors first, in index order while the budget lasts.
	for i, o := range obs {
		caps[i] = o.Computers
		if o.Done {
			caps[i] = 0
		}
		f := floor
		if f > caps[i] {
			f = caps[i]
		}
		if f > remaining {
			f = remaining
		}
		out[i] = f
		remaining -= f
	}
	if remaining <= 0 {
		return out, nil
	}
	weights := make([]float64, n)
	wsum := 0.0
	for i, o := range obs {
		if caps[i] > 0 {
			weights[i] = float64(o.Arrived)
			wsum += weights[i]
		}
	}
	if wsum == 0 {
		// No load anywhere: split the remainder evenly over live clusters.
		for i := range weights {
			if caps[i] > 0 {
				weights[i] = 1
				wsum++
			}
		}
		if wsum == 0 {
			return out, nil
		}
	}
	// Largest remainder over the extra budget, respecting the caps; when a
	// cap truncates a quota the leftover cascades to the next pass.
	for remaining > 0 {
		type quota struct {
			i    int
			frac float64
		}
		var quotas []quota
		granted := 0
		for i := range obs {
			room := caps[i] - out[i]
			if room <= 0 || weights[i] == 0 {
				continue
			}
			ideal := float64(remaining) * weights[i] / wsum
			g := int(math.Floor(ideal))
			if g > room {
				g = room
			}
			out[i] += g
			granted += g
			if g < room {
				quotas = append(quotas, quota{i, ideal - math.Floor(ideal)})
			}
		}
		remaining -= granted
		if remaining <= 0 {
			break
		}
		if len(quotas) == 0 {
			// Every live cluster is saturated; the rest stays unassigned.
			break
		}
		sort.SliceStable(quotas, func(a, b int) bool { return quotas[a].frac > quotas[b].frac })
		progressed := false
		for _, q := range quotas {
			if remaining == 0 {
				break
			}
			if out[q.i] < caps[q.i] {
				out[q.i]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			break
		}
		// Recompute the live weight mass for the next pass.
		wsum = 0
		for i := range obs {
			if caps[i]-out[i] > 0 {
				wsum += weights[i]
			}
		}
		if wsum == 0 {
			for i := range obs {
				if caps[i]-out[i] > 0 {
					weights[i] = 1
					wsum++
				} else {
					weights[i] = 0
				}
			}
			if wsum == 0 {
				break
			}
		}
	}
	return out, nil
}
