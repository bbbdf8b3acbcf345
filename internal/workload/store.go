// Package workload implements the paper's workload substrate: binned
// arrival traces (the §4.3 synthetic trace and a World-Cup-98-like diurnal
// day), a virtual object store with Zipf popularity and lognormal temporal
// locality, a per-bin request generator that turns trace counts into
// individual requests with arrival offsets and service demands, and the
// named Scenario registry (scenario.go) through which experiments, CLIs,
// and the control-plane daemon select workloads — including stress
// profiles beyond the paper's two (flash crowds, multiplicative noise,
// heavy-tailed service times, correlated failure storms, recorded-trace
// replay).
//
// Invariants the rest of the system relies on:
//
//   - Generator and Feed share one bin-synthesis code path (synthBin),
//     including the exact RNG call sequence, so a Feed pushed a trace's
//     counts reproduces a pre-materialized Generator run bit-for-bit —
//     the foundation of the online-equals-batch equivalence pinned in
//     internal/fleet.
//   - A bin's requests are born in arrival order (exponential gaps
//     rescaled onto the bin: the order statistics of uniform offsets), so
//     nothing downstream sorts, and the i-th sampled object is the i-th
//     arrival — the store's temporal locality reaches the dispatcher in
//     the order it was drawn (TestSynthBinOrderedUniform).
//   - Every registered Scenario's trace builder is deterministic per
//     seed: same seed, bin-for-bin identical series (pinned by
//     TestScenarioDeterminismPerSeed). The robustness-matrix snapshot
//     (BENCH_scenarios.json) is byte-reproducible because of it. The
//     builders are one-shot — no stream outlives their return — and draw
//     from math/rand's own source; the resident streams (feed, dispatcher,
//     store) are des.Stream.
//
// Substitution note (see the README's "Scenario gallery"): the real WC'98 and ISP traces are
// not redistributable; the profiles here reproduce the published shapes
// (time-of-day nonstationarity, noise bands, peak/trough ratios), which is
// what the controllers respond to.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"hierctl/internal/ckpt"
	"hierctl/internal/des"
)

// Store is the virtual object store of §4.3: Objects objects whose
// individual processing times are drawn uniformly from [MinDemand,
// MaxDemand]; a "popular" prefix of PopularCount objects receives
// PopularShare of all requests (popularity follows Zipf's law within each
// partition); and temporal locality re-requests recently seen objects with
// lognormally distributed stack distances.
//
// A store does not keep its demands: object i's is draw i of the stream the
// store was built from, which des.State.Jump reaches from the stream's
// origin through coefficients the whole process shares, so it is computed
// on each lookup. What the store keeps is the origin and every 256th state
// after it (16 bytes per 256 objects), which makes a lookup one
// multiply-add from the nearest. Only a store whose i-th demand is not the
// i-th draw holds the table instead (demands non-nil): a heavy tail takes
// two or three draws an object, and a stream that hits math/rand's Float64
// redraw shifts every index after it.
//
// Construct with NewStore.
type Store struct {
	objects   int
	minDemand float64
	spread    float64
	strides   []des.State
	demands   []float64

	popularCount int
	popularShare float64

	// stream is what the popularity samplers draw from, past the demands.
	stream   *des.Stream
	popZipf  *rand.Zipf
	rareZipf *rand.Zipf

	// Temporal locality parameters. The history holds object ids as
	// int32 (Validate bounds Objects), half the resident bytes of []int.
	localProb  float64
	logMu      float64
	logSigma   float64
	history    []int32
	historyCap int
}

// StoreConfig parameterizes NewStore. The zero value is not valid; use
// DefaultStoreConfig for the paper's settings.
type StoreConfig struct {
	// Objects is the total number of objects (paper: 10 000).
	Objects int
	// PopularCount is the size of the popular partition (paper: 1000).
	PopularCount int
	// PopularShare is the fraction of requests served by the popular
	// partition (paper: 0.9).
	PopularShare float64
	// MinDemand and MaxDemand bound per-object full-speed processing
	// times in seconds (paper: 10–25 ms).
	MinDemand, MaxDemand float64
	// ZipfS is the Zipf exponent used within each partition (> 1 as
	// required by math/rand; web workloads are near 1).
	ZipfS float64
	// LocalityProb is the probability a request re-references a recently
	// requested object instead of sampling by popularity.
	LocalityProb float64
	// LogMu and LogSigma parameterize the lognormal stack distance of
	// temporal locality (§4.3 cites Barford & Crovella).
	LogMu, LogSigma float64
	// HistoryCap bounds the locality history length.
	HistoryCap int
	// TailFrac, when positive, mixes a heavy tail into the demand draws:
	// each object independently has its full-speed processing time drawn
	// from a truncated Pareto distribution (scale MaxDemand, shape
	// TailAlpha, capped at TailCap seconds) with probability TailFrac
	// instead of the uniform body. Zero (the default) is the paper's
	// uniform demands and draws nothing extra.
	TailFrac float64
	// TailAlpha is the Pareto shape (smaller = heavier tail; web service
	// times are typically 1-1.5).
	TailAlpha float64
	// TailCap truncates tail draws, in seconds.
	TailCap float64
}

// DefaultStoreConfig returns the paper's virtual-store parameters.
func DefaultStoreConfig() StoreConfig {
	return StoreConfig{
		Objects:      10000,
		PopularCount: 1000,
		PopularShare: 0.9,
		MinDemand:    0.010,
		MaxDemand:    0.025,
		ZipfS:        1.1,
		LocalityProb: 0.3,
		LogMu:        math.Log(50),
		LogSigma:     1.5,
		HistoryCap:   4096,
	}
}

// Validate reports whether the configuration is usable.
func (c StoreConfig) Validate() error {
	if c.Objects <= 0 || c.Objects > math.MaxInt32 {
		return fmt.Errorf("workload: objects %d outside (0, %d]", c.Objects, math.MaxInt32)
	}
	if c.PopularCount <= 0 || c.PopularCount > c.Objects {
		return fmt.Errorf("workload: popular count %d outside (0, %d]", c.PopularCount, c.Objects)
	}
	if c.PopularShare < 0 || c.PopularShare > 1 {
		return fmt.Errorf("workload: popular share %v outside [0, 1]", c.PopularShare)
	}
	if c.MinDemand <= 0 || c.MaxDemand < c.MinDemand {
		return fmt.Errorf("workload: demand range [%v, %v] invalid", c.MinDemand, c.MaxDemand)
	}
	if c.ZipfS <= 1 {
		return fmt.Errorf("workload: zipf exponent %v must be > 1", c.ZipfS)
	}
	if c.LocalityProb < 0 || c.LocalityProb >= 1 {
		return fmt.Errorf("workload: locality probability %v outside [0, 1)", c.LocalityProb)
	}
	if c.LogSigma < 0 {
		return fmt.Errorf("workload: lognormal sigma %v < 0", c.LogSigma)
	}
	if c.HistoryCap < 1 {
		return fmt.Errorf("workload: history cap %d < 1", c.HistoryCap)
	}
	if c.TailFrac < 0 || c.TailFrac >= 1 {
		return fmt.Errorf("workload: tail fraction %v outside [0, 1)", c.TailFrac)
	}
	if c.TailFrac > 0 {
		if c.TailAlpha <= 0 {
			return fmt.Errorf("workload: tail alpha %v <= 0", c.TailAlpha)
		}
		if c.TailCap < c.MaxDemand {
			return fmt.Errorf("workload: tail cap %v below max demand %v", c.TailCap, c.MaxDemand)
		}
	}
	return nil
}

// NewStore builds a store over stream: its first draws are the per-object
// demands, and the popularity samplers draw from where those end.
func NewStore(stream *des.Stream, cfg StoreConfig) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Store{
		objects:      cfg.Objects,
		minDemand:    cfg.MinDemand,
		spread:       cfg.MaxDemand - cfg.MinDemand,
		popularCount: cfg.PopularCount,
		popularShare: cfg.PopularShare,
		localProb:    cfg.LocalityProb,
		logMu:        cfg.LogMu,
		logSigma:     cfg.LogSigma,
		historyCap:   cfg.HistoryCap,
		// remember appends one past the cap before it drops the oldest
		// half, so this is the history's final size: no growth later.
		history: make([]int32, 0, cfg.HistoryCap+1),
		stream:  stream,
	}
	origin := *stream
	rng := rand.New(stream)
	if cfg.TailFrac > 0 || !oneDrawEach(stream, cfg.Objects) {
		*stream = origin // back over whatever the look drew
		s.demands = drawDemands(rng, cfg)
	} else {
		from := origin.State()
		s.strides = make([]des.State, cfg.Objects>>8+1)
		for i := range s.strides {
			s.strides[i] = from.Jump(uint64(i) << 8)
		}
	}
	s.popZipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.PopularCount-1))
	rare := cfg.Objects - cfg.PopularCount
	if rare > 0 {
		s.rareZipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(rare-1))
	}
	return s, nil
}

// unitFloat is the map math/rand's Float64 applies to a des.Stream draw.
// It reaches 1 for the top 2^9 or so of the 2^63 values, which Float64
// throws away and draws again.
func unitFloat(u uint64) float64 { return float64(int64(u>>1)) / (1 << 63) }

// oneDrawEach advances stream past n Float64 draws, storing nothing, and
// reports whether each took exactly one value of the stream — whether draw
// i is object i's. A redraw (2^-54 a draw) shifts every later index.
func oneDrawEach(stream *des.Stream, n int) bool {
	for i := 0; i < n; i++ {
		if unitFloat(stream.Uint64()) == 1 {
			return false
		}
	}
	return true
}

// drawDemands is the demand table drawn in full, the definition the
// computed path reproduces.
func drawDemands(rng *rand.Rand, cfg StoreConfig) []float64 {
	demands := make([]float64, cfg.Objects)
	for i := range demands {
		demands[i] = cfg.MinDemand + rng.Float64()*(cfg.MaxDemand-cfg.MinDemand)
		if cfg.TailFrac > 0 && rng.Float64() < cfg.TailFrac {
			// Truncated Pareto tail: scale MaxDemand, shape TailAlpha.
			// (1 - U) is in (0, 1], so the draw is finite; U = 0 lands
			// exactly on the scale.
			d := cfg.MaxDemand * math.Pow(1-rng.Float64(), -1/cfg.TailAlpha)
			if d > cfg.TailCap {
				d = cfg.TailCap
			}
			demands[i] = d
		}
	}
	return demands
}

// Objects returns the number of objects in the store.
func (s *Store) Objects() int { return s.objects }

// Demand returns the full-speed processing time of object id in seconds.
func (s *Store) Demand(id int) float64 {
	if s.demands != nil {
		return s.demands[id]
	}
	if uint(id) >= uint(s.objects) {
		panic("workload: object id out of range")
	}
	n := uint64(id) + 1 // arriving at state n draws object n-1's value
	return s.minDemand + unitFloat(s.strides[n>>8].Jump(n&0xff).Output())*s.spread
}

// Sample draws the next requested object id, honouring temporal locality
// and the popular/rare partition split.
func (s *Store) Sample(rng *rand.Rand) int {
	if len(s.history) > 0 && rng.Float64() < s.localProb {
		// Lognormal stack distance into the recent-history buffer, compared
		// before it is truncated: a distance past the history — +Inf or NaN
		// under an extreme LogMu included — has no int to convert to.
		d := math.Exp(s.logMu + s.logSigma*rng.NormFloat64())
		if d < float64(len(s.history)) {
			id := int(s.history[len(s.history)-1-int(d)])
			s.remember(id)
			return id
		}
	}
	var id int
	if s.rareZipf == nil || rng.Float64() < s.popularShare {
		id = int(s.popZipf.Uint64())
	} else {
		id = s.popularCount + int(s.rareZipf.Uint64())
	}
	s.remember(id)
	return id
}

func (s *Store) remember(id int) {
	s.history = append(s.history, int32(id))
	if len(s.history) > s.historyCap {
		// Drop the oldest half to amortize the copy.
		keep := s.historyCap / 2
		copy(s.history, s.history[len(s.history)-keep:])
		s.history = s.history[:keep]
	}
}

// Checkpoint appends the store's mutable state: the position of its
// popularity stream and the locality history, every entry and its length
// (remember halves it past the cap, so the length is state, not a ring
// position). The demands and samplers follow from the configuration.
func (s *Store) Checkpoint(w *ckpt.Writer) {
	s.stream.Checkpoint(w)
	w.Uint(uint64(len(s.history)))
	for _, id := range s.history {
		w.Uint(uint64(id))
	}
}

// RestoreCheckpoint reads back what Checkpoint wrote into a store built
// from the same configuration.
func (s *Store) RestoreCheckpoint(r *ckpt.Reader) {
	s.stream.RestoreCheckpoint(r)
	n := r.Count(1, "locality history")
	if n > s.historyCap {
		r.Fail("locality history of %d past its cap %d", n, s.historyCap)
		n = 0
	}
	s.history = s.history[:n]
	for i := range s.history {
		id := r.Uint()
		if id >= uint64(s.objects) {
			r.Fail("locality history names object %d of %d", id, s.objects)
			id = 0
		}
		s.history[i] = int32(id)
	}
}
