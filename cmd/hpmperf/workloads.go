package main

import (
	"fmt"
	"math"
)

// mode is how a workload drives the daemon.
type mode int

const (
	modeBatch   mode = iota // POST /v1/observe:batch, closed loop
	modeRPC                 // POST /v1/tenants/{id}/observe: closed phase A, open phase B
	modeRestart             // batch ingest under -journal with SIGTERM/restart cycles
)

// binSeconds is the only observation cadence the benchmark uses: one
// T_L0 control period per bin.
const binSeconds = 30

// conns is the load shape's keep-alive connection count. It is not a
// knob: the per-connection rates below are calibrated at it, and the
// tenant partitions — hence rpc-single's per-tenant bin counts and its
// digests — follow from it.
const conns = 2

// spec is one workload's shape. Work is fixed per (seed, seconds): the
// per-second rates below are the reference box's, so a run measures for
// about -seconds there while every tenant's inputs — and therefore every
// decision — stay a pure function of the seed.
type spec struct {
	name string
	why  string
	mode mode
	// Tenant shape, as POST /v1/tenants takes it: modules > 1 builds that
	// many standard 4-computer modules, otherwise one module of moduleSize.
	tenants    int
	modules    int
	moduleSize int
	mean       float64 // arrivals per bin
	// Batch shape: every round each connection posts one entry per tenant
	// of its partition, binsPerEntry bins each.
	binsPerEntry int
	// roundsPerSec is the reference box's closed-loop round rate per
	// connection; rounds = roundsPerSec × seconds.
	roundsPerSec float64
	// modeRPC: closed-loop requests per second of phase A (per connection,
	// reference box) and the fixed open-loop rate of phase B (all
	// connections together); phase B lasts openShare of -seconds.
	openRate  float64
	openShare float64
	// modeRestart: bins of history per tenant before the restarts, and the
	// number of SIGTERM → restart → /readyz cycles.
	historyBins int
	restarts    int
	// setups is how many times an untraced run sets up (exec a fresh daemon,
	// create every tenant); setup_s is the median. The cheaper one pass is,
	// the more exec and scheduler jitter weighs in it and the more passes it
	// takes for the median to hold its bound.
	setups int
}

// specs are the five workloads, in run order.
var specs = []spec{
	{
		name: "wide-sparse", mode: modeBatch,
		why:     "512 two-computer tenants, 6 arrivals/bin, 1 bin each per batch call: batch JSON, shard fan-out and per-tenant fixed cost do the work, the plant almost none; /metrics cost scales here only",
		tenants: 512, moduleSize: 2, mean: 6, binsPerEntry: 1, roundsPerSec: 145, setups: 3,
	},
	{
		name: "deep-backfill", mode: modeBatch,
		why:     "16 four-computer tenants, 900 arrivals/bin, 32 bins per entry: request synthesis and the request-level DES do ~90% of the work; a controller or wire-format change must show no change here",
		tenants: 16, moduleSize: 4, mean: 900, binsPerEntry: 32, roundsPerSec: 21, setups: 15,
	},
	{
		name: "cluster-l2", mode: modeBatch,
		why:     "32 sixteen-computer tenants (4 modules, L2 active), 100 arrivals/bin, 8 bins per entry: the only regime where L2/L1/L0 decide is most of the step, so search work shows here",
		tenants: 32, modules: 4, mean: 100, binsPerEntry: 8, roundsPerSec: 85, setups: 9,
	},
	{
		name: "rpc-single", mode: modeRPC,
		why:     "64 two-computer tenants, one POST observe per bin returning the decision: HTTP, JSON and the shard hop are most of the latency; closed-loop capacity, then 1000 req/s open loop timed from due time",
		tenants: 64, moduleSize: 2, mean: 25, binsPerEntry: 1, roundsPerSec: 3500, openRate: 1000, openShare: 0.5, setups: 9,
	},
	{
		name: "restart-restore", mode: modeRestart,
		why:     "256 two-computer tenants under -journal: fixed 256-bin history, five SIGTERM/restart/readyz cycles, then ingest beside 1 s journal appends; fleet's persistence half works here and nowhere else",
		tenants: 256, moduleSize: 2, mean: 25, binsPerEntry: 8, roundsPerSec: 29, historyBins: 256, restarts: 5, setups: 5,
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// smoked shrinks a workload to about 1 % of its size for the tier-1 smoke
// test: a sixteenth of the tenants (at least one per connection and
// shard), two set-up passes, a short history and two restarts.
func (s spec) smoked() spec {
	s.tenants = max(2*conns, s.tenants/16)
	s.setups = 2
	if s.mode == modeRestart {
		s.historyBins = 16
		s.restarts = 2
	}
	return s
}

// rounds is the number of closed-loop rounds each connection runs.
func (s spec) rounds(seconds float64) int {
	return max(2, int(math.Round(s.roundsPerSec*seconds)))
}

// openRequests is the number of phase-B requests per connection.
func (s spec) openRequests(seconds float64) int {
	return max(2, int(math.Round(s.openRate*s.openShare*seconds/float64(conns))))
}

// partition returns the tenant indices connection c owns: a contiguous
// block, so that with tenants created in index order (and the fleet
// placing them round-robin) every connection's batch spans all shards.
func partition(tenants, c int) (lo, hi int) {
	per := (tenants + conns - 1) / conns
	lo = min(c*per, tenants)
	hi = min(lo+per, tenants)
	return lo, hi
}

func tenantID(i int) string { return fmt.Sprintf("t-%04d", i) }
