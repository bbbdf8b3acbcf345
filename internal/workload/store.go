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

// The virtual store's fixed parameters (§4.3).
const (
	// PopularShare is the fraction of requests served by the popular
	// partition (paper: 0.9).
	PopularShare float64 = 0.9
	// MinDemand and MaxDemand bound per-object full-speed processing
	// times in seconds (paper: 10–25 ms).
	MinDemand float64 = 0.010
	MaxDemand float64 = 0.025
	// DefaultCHat is the processing-time prior a controller uses until
	// its estimator has observations: the demand range's midpoint.
	DefaultCHat float64 = 0.0175
	// ZipfS is the Zipf exponent used within each partition (> 1 as
	// required by math/rand; web workloads are near 1).
	ZipfS float64 = 1.1
	// LogSigma is the σ of the lognormal stack distance of temporal
	// locality (§4.3 cites Barford & Crovella); LogMu is its μ.
	LogSigma float64 = 1.5
	// HistoryCap bounds the locality history length. A power of two: the
	// history is a ring of HistoryCap slots.
	HistoryCap = 4096
	// MaxObjects bounds StoreConfig.Objects: the locality history holds
	// object ids as uint16.
	MaxObjects = 1 << 16
)

// LogMu is the μ of the lognormal stack distance, ln 50: a variable, as
// math.Log is not a constant expression.
var LogMu = math.Log(50)

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
	objects int
	strides []des.State
	demands []float64

	popularCount int

	// stream is what the popularity samplers draw from, past the demands.
	stream   *des.Stream
	popZipf  *rand.Zipf
	rareZipf *rand.Zipf

	// Temporal locality state: a ring of HistoryCap slots holding the last
	// histLen requested object ids, the newest at
	// history[(histHead−1) mod HistoryCap]. An id is a uint16 (Validate
	// bounds Objects), so the ring is 8 KB, made by NewStore at its final
	// size.
	localProb float64
	history   []uint16
	histHead  int
	histLen   int
}

// StoreConfig parameterizes NewStore. The zero value is not valid; use
// DefaultStoreConfig for the paper's settings.
type StoreConfig struct {
	// Objects is the total number of objects (paper: 10 000).
	Objects int
	// PopularCount is the size of the popular partition (paper: 1000).
	PopularCount int
	// LocalityProb is the probability a request re-references a recently
	// requested object instead of sampling by popularity.
	LocalityProb float64
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
		LocalityProb: 0.3,
	}
}

// Validate reports whether the configuration is usable.
func (c StoreConfig) Validate() error {
	if c.Objects <= 0 || c.Objects > MaxObjects {
		return fmt.Errorf("workload: objects %d outside (0, %d]", c.Objects, MaxObjects)
	}
	if c.PopularCount <= 0 || c.PopularCount > c.Objects {
		return fmt.Errorf("workload: popular count %d outside (0, %d]", c.PopularCount, c.Objects)
	}
	if c.LocalityProb < 0 || c.LocalityProb >= 1 {
		return fmt.Errorf("workload: locality probability %v outside [0, 1)", c.LocalityProb)
	}
	if c.TailFrac < 0 || c.TailFrac >= 1 {
		return fmt.Errorf("workload: tail fraction %v outside [0, 1)", c.TailFrac)
	}
	if c.TailFrac > 0 {
		if c.TailAlpha <= 0 {
			return fmt.Errorf("workload: tail alpha %v <= 0", c.TailAlpha)
		}
		if c.TailCap < MaxDemand {
			return fmt.Errorf("workload: tail cap %v below max demand %v", c.TailCap, MaxDemand)
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
		popularCount: cfg.PopularCount,
		localProb:    cfg.LocalityProb,
		history:      make([]uint16, HistoryCap),
		stream:       stream,
	}
	rng := rand.New(stream)
	if cfg.TailFrac == 0 {
		from := stream.State()
		s.strides = make([]des.State, cfg.Objects>>8+1)
		for i := range s.strides {
			s.strides[i] = from.Jump(uint64(i) << 8)
		}
		if oneDrawEach(s.strides, cfg.Objects) {
			stream.SetState(from.Jump(uint64(cfg.Objects)))
		} else {
			s.strides = nil
		}
	}
	if s.strides == nil {
		s.demands = drawDemands(rng, cfg)
	}
	s.popZipf = rand.NewZipf(rng, ZipfS, 1, uint64(cfg.PopularCount-1))
	rare := cfg.Objects - cfg.PopularCount
	if rare > 0 {
		s.rareZipf = rand.NewZipf(rng, ZipfS, 1, uint64(rare-1))
	}
	return s, nil
}

// unitFloat is the map math/rand's Float64 applies to a des.Stream draw.
// It reaches 1 for the top 2^9 or so of the 2^63 values, which Float64
// throws away and draws again.
func unitFloat(u uint64) float64 { return float64(int64(u>>1)) / (1 << 63) }

// redrawFrom is the least draw unitFloat maps to 1: u>>1 rounds up to 2^63
// from 2^63 − 512 on, where float64 steps by 1024 and a tie goes to even.
const redrawFrom = math.MaxUint64 - 1023

// oneDrawEach reports whether each of the first n Float64 draws of the
// stream whose every 256th state strides holds (strides[i] is the origin
// 256·i steps on) takes exactly one value of the stream — whether draw i
// is object i's. A redraw (2^-54 a draw) shifts every later index. Four
// strides' runs of 256 draws are walked side by side, each in variables of
// its own: each step of a walk waits on the one before it, and four
// independent walks keep the multiplier busy.
func oneDrawEach(strides []des.State, n int) bool {
	for base := 0; base < len(strides); base += 4 {
		var st [4]des.State
		var draws [4]int // of the lane's 256; none past the last stride
		for l := range st {
			if i := base + l; i < len(strides) {
				st[l], draws[l] = strides[i], min(256, n-i<<8)
			}
		}
		s0, s1, s2, s3 := st[0], st[1], st[2], st[3]
		for k := range 256 {
			s0, s1, s2, s3 = s0.Next(), s1.Next(), s2.Next(), s3.Next()
			if k < draws[0] && s0.Output() >= redrawFrom || k < draws[1] && s1.Output() >= redrawFrom ||
				k < draws[2] && s2.Output() >= redrawFrom || k < draws[3] && s3.Output() >= redrawFrom {
				return false
			}
		}
	}
	return true
}

// drawDemands is the demand table drawn in full, the definition the
// computed path reproduces.
func drawDemands(rng *rand.Rand, cfg StoreConfig) []float64 {
	demands := make([]float64, cfg.Objects)
	for i := range demands {
		demands[i] = MinDemand + rng.Float64()*(MaxDemand-MinDemand)
		if cfg.TailFrac > 0 && rng.Float64() < cfg.TailFrac {
			// Truncated Pareto tail: scale MaxDemand, shape TailAlpha.
			// (1 - U) is in (0, 1], so the draw is finite; U = 0 lands
			// exactly on the scale.
			d := MaxDemand * math.Pow(1-rng.Float64(), -1/cfg.TailAlpha)
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
	return MinDemand + unitFloat(s.strides[n>>8].Jump(n&0xff).Output())*(MaxDemand-MinDemand)
}

// Sample draws the next requested object id, honouring temporal locality
// and the popular/rare partition split.
func (s *Store) Sample(rng *rand.Rand) int {
	if s.histLen > 0 && rng.Float64() < s.localProb {
		// Lognormal stack distance into the recent history, compared
		// before it is truncated: a distance past the history may have no
		// int to convert to.
		d := math.Exp(LogMu + LogSigma*rng.NormFloat64())
		if d < float64(s.histLen) {
			id := int(s.history[(s.histHead-1-int(d))&(HistoryCap-1)])
			s.remember(id)
			return id
		}
	}
	var id int
	if s.rareZipf == nil || rng.Float64() < PopularShare {
		id = int(s.popZipf.Uint64())
	} else {
		id = s.popularCount + int(s.rareZipf.Uint64())
	}
	s.remember(id)
	return id
}

// remember appends id to the history. One past the cap the history drops
// its oldest half, which the ring does by its length alone; the slot the
// newest id takes is then the oldest's.
func (s *Store) remember(id int) {
	s.history[s.histHead] = uint16(id)
	s.histHead = (s.histHead + 1) & (HistoryCap - 1)
	if s.histLen++; s.histLen > HistoryCap {
		s.histLen = HistoryCap / 2
	}
}

// Checkpoint appends the store's mutable state: the position of its
// popularity stream and the locality history, its length and then every
// entry, oldest first (remember halves it past the cap, so the length is
// state; where the ring starts is not). The demands and samplers follow
// from the configuration.
func (s *Store) Checkpoint(w *ckpt.Writer) {
	s.stream.Checkpoint(w)
	w.Uint(uint64(s.histLen))
	for i := s.histHead - s.histLen; i < s.histHead; i++ {
		w.Uint(uint64(s.history[i&(HistoryCap-1)]))
	}
}

// RestoreCheckpoint reads back what Checkpoint wrote into a store built
// from the same configuration.
func (s *Store) RestoreCheckpoint(r *ckpt.Reader) {
	s.stream.RestoreCheckpoint(r)
	n := r.Count(1, "locality history")
	if n > HistoryCap {
		r.Fail("locality history of %d past its cap %d", n, HistoryCap)
		n = 0
	}
	s.histHead, s.histLen = n&(HistoryCap-1), n
	for i := range n {
		id := r.Uint()
		if id >= uint64(s.objects) {
			r.Fail("locality history names object %d of %d", id, s.objects)
			id = 0
		}
		s.history[i] = uint16(id)
	}
}
