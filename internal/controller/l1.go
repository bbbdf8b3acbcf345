package controller

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"hierctl/internal/llc"
	// Aliased: Decide's observation parameter is conventionally named obs.
	flight "hierctl/internal/obs"
)

// The paper's §4.2-§4.3 L1 settings. StabilityUtil is fixed; the other
// three are DefaultL1Config's, which the comparators in internal/central
// and internal/baseline mirror.
const (
	// DefaultPeriodL1 is the sampling time T_L1 (paper: 2 min, "the
	// typical time delay incurred in switching on a computer").
	DefaultPeriodL1 float64 = 120
	// DefaultQuantumL1 quantizes the load fractions γ_ij (paper: 0.05
	// for m = 4, 0.1 for the m = 6 and m = 10 experiments).
	DefaultQuantumL1 float64 = 0.05
	// DefaultSwitchWeight is W, the transient cost of powering a computer
	// on (paper: 8, "much higher than the base operating cost of 0.75").
	DefaultSwitchWeight float64 = 8
	// StabilityUtil is the §4.2 queuing-stability limit on the load
	// fractions: a candidate that would push any computer's full-speed
	// utilization γ_j·λ̂·ĉ/speed_j beyond this bound is heavily
	// penalized ("we know the peak request arrival rate that can be
	// processed by a computer without queuing instability").
	StabilityUtil float64 = 0.85
)

// L1Config parameterizes a module-level L1 controller (§4.2).
type L1Config struct {
	// PeriodSeconds is the sampling time T_L1.
	PeriodSeconds float64
	// Quantum quantizes the load fractions γ_ij.
	Quantum float64
	// SwitchWeight is W, the transient cost of powering a computer on.
	SwitchWeight float64
	// NeighbourDepth bounds the γ neighbourhood search: how many quanta
	// may move between computers relative to the seed allocations.
	NeighbourDepth int
	// MinOn is the minimum number of operational computers (≥ 1 keeps
	// the module able to serve).
	MinOn int
	// UncertaintySamples enables the §4.2 chattering mitigation: when
	// true the expected cost is averaged over {λ̂−δ, λ̂, λ̂+δ}; when
	// false only the nominal forecast is used (the EXT2 ablation).
	UncertaintySamples bool
	// NonNegativeCosts declares the per-sample candidate costs
	// non-negative — true for the learned abstraction maps, whose cells
	// store sums of slack and power terms — enabling llc.OneStep's
	// partial-mean pruning: the selected (α, γ) is bit-identical and only
	// Explored shrinks. Disable for maps that can price candidates
	// negatively.
	NonNegativeCosts bool
}

// DefaultL1Config returns the paper's §4.3 settings.
func DefaultL1Config() L1Config {
	return L1Config{
		PeriodSeconds:      DefaultPeriodL1,
		Quantum:            DefaultQuantumL1,
		SwitchWeight:       DefaultSwitchWeight,
		NeighbourDepth:     2,
		MinOn:              1,
		UncertaintySamples: true,
		NonNegativeCosts:   true,
	}
}

// Validate reports whether the configuration is usable.
func (c L1Config) Validate() error {
	if c.PeriodSeconds <= 0 {
		return fmt.Errorf("controller: L1 period %v <= 0", c.PeriodSeconds)
	}
	units := math.Round(1 / c.Quantum)
	if c.Quantum <= 0 || c.Quantum > 1 || math.Abs(units*c.Quantum-1) > 1e-9 {
		return fmt.Errorf("controller: L1 quantum %v must evenly divide 1", c.Quantum)
	}
	if c.SwitchWeight < 0 {
		return fmt.Errorf("controller: L1 switch weight %v < 0", c.SwitchWeight)
	}
	if c.NeighbourDepth < 0 {
		return fmt.Errorf("controller: L1 neighbour depth %d < 0", c.NeighbourDepth)
	}
	if c.MinOn < 1 {
		return fmt.Errorf("controller: L1 min-on %d < 1", c.MinOn)
	}
	return nil
}

// L1Observation is the aggregated module state x_L1 (Eq. 9) plus the
// environment estimates ω̂_L1 (Eq. 11–12) the L1 controller consumes.
type L1Observation struct {
	// QueueLens holds the observed queue length of each computer.
	QueueLens []float64
	// LambdaHat is the forecast module arrival rate (requests/second)
	// over the next L1 period.
	LambdaHat float64
	// Delta is the forecast uncertainty band half-width δ (§4.2).
	Delta float64
	// CHat is the estimated mean full-speed processing time (seconds).
	CHat float64
	// Available marks computers that may be powered on (false = failed).
	Available []bool
}

// L1Decision is the controller's output: the operating state vector
// {α_ij} and the load fractions {γ_ij}.
type L1Decision struct {
	// Alpha[j] is true if computer j should be on.
	Alpha []bool
	// Gamma[j] is the fraction of module load dispatched to computer j;
	// zero wherever Alpha[j] is false, summing to 1.
	Gamma []float64
	// Explored counts candidate states evaluated (overhead metric).
	Explored int
}

// vecPool recycles candidate vectors across periods.
type vecPool[T any] struct {
	vecs [][]T
	used int
}

func (p *vecPool[T]) reset() { p.used = 0 }

func (p *vecPool[T]) get(n int) []T {
	if p.used < len(p.vecs) {
		v := p.vecs[p.used]
		p.used++
		return v
	}
	v := make([]T, n)
	p.vecs = append(p.vecs, v)
	p.used++
	return v
}

// packBools packs an on/off vector into a uint64 bitmask (len ≤ 64).
func packBools(a []bool) uint64 {
	k := uint64(0)
	for i, v := range a {
		if v {
			k |= 1 << uint(i)
		}
	}
	return k
}

// L1 is the module-level controller. Construct with NewL1.
//
// L1 always prices the boot dead time (§1's "control actions with dead
// times ... requiring proactive control"), because the request-level plant
// really imposes it: each candidate is priced over two periods, the first
// with fresh computers booting (see evaluate). The paper's optimistic
// N_L1 = 1 pricing, where a switched-on computer serves at once, is not
// offered.
//
// The controller owns candidate pools, dedup key slices, abstraction-map
// scratch and the decision it returns; the capacity-seeded γ neighbourhood
// of each α mask comes from a CandidateTable shared by every L1 of the
// shape. A warm Decide allocates nothing (pinned by
// TestL1DecideSteadyStateAllocs): the returned decision's slices belong to
// the controller and stay valid until its next Decide, so a caller that
// keeps a decision longer copies it. α candidates dedup on a 64-bit on/off
// mask — hence the m ≤ 64 bound in NewL1 — and γ candidates on their packed
// unit counts (see gammaLayout), one mechanism for every module size. Not
// safe for concurrent use; the table is.
type L1 struct {
	cfg   L1Config
	gmaps []*GMap
	caps  []float64 // relative capacity weights for seed allocations

	prevAlpha []bool
	prevGamma []float64

	gammaPer   uint // packed-γ key: bits per entry
	gammaWords int  // packed-γ key: words per candidate

	snap       snapper
	pr         l1Pricer
	samplesBuf [3]float64
	evalBuf    [gColWidth]float64
	qEndBuf    []float64
	alphaBase  []bool
	alphaScr   []bool
	alphaPool  vecPool[bool]
	alphaCands [][]bool
	alphaKeys  []uint64
	table      *CandidateTable
	gammaPool  vecPool[float64]
	gammaList  [][]float64
	gammaKeys  []uint64
	gammaScr   []float64
	prevSnap   []float64
	// bestAlphaScr and bestGammaScr hold the incumbent of the decision in
	// flight and, once Decide returns, the decision it hands out.
	bestAlphaScr []bool
	bestGammaScr []float64

	explored    int
	decisions   int
	computeTime time.Duration
	// maxExplored is the decision budget (see SetMaxExplored); 0 = none.
	maxExplored int

	// Flight recorder (nil = disabled) and the module index stamped onto
	// records.
	rec       *flight.Recorder
	recModule int16
}

// NewL1 builds an L1 controller over the module's learned abstraction
// maps (one per computer, in module order). The initial assumed state is
// all computers on with a capacity-proportional allocation. table holds the
// γ neighbourhoods of the shape, shared with every L1 built over it (see
// L1TableKey; a table of another shape is refused); nil gives the
// controller a private one.
func NewL1(cfg L1Config, gmaps []*GMap, table *CandidateTable) (*L1, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(gmaps) == 0 {
		return nil, fmt.Errorf("controller: L1 needs at least one abstraction map")
	}
	for j, g := range gmaps {
		if g == nil {
			return nil, fmt.Errorf("controller: L1 abstraction map %d is nil", j)
		}
	}
	if cfg.MinOn > len(gmaps) {
		return nil, fmt.Errorf("controller: L1 min-on %d exceeds module size %d", cfg.MinOn, len(gmaps))
	}
	m := len(gmaps)
	if m > 64 {
		return nil, fmt.Errorf("controller: L1 module size %d exceeds 64 (the on/off mask is one uint64)", m)
	}
	l := &L1{cfg: cfg, gmaps: gmaps, caps: make([]float64, m)}
	for j, g := range gmaps {
		// Capacity proxy: service rate at full speed for a nominal
		// demand, used only to seed allocations.
		l.caps[j] = g.Spec().SpeedFactor
	}
	var err error
	if l.table, err = tableFor(table, L1TableKey(cfg, gmaps)); err != nil {
		return nil, err
	}
	l.gammaPer, l.gammaWords = gammaLayout(m, cfg.Quantum)
	l.qEndBuf = make([]float64, m)
	l.pr = l1Pricer{l: l, obs: L1Observation{QueueLens: make([]float64, m)}}
	l.alphaBase = make([]bool, m)
	l.alphaScr = make([]bool, m)
	l.gammaScr = make([]float64, m)
	l.prevSnap = make([]float64, m)
	l.bestAlphaScr = make([]bool, m)
	l.bestGammaScr = make([]float64, m)
	l.prevAlpha = make([]bool, m)
	for j := range l.prevAlpha {
		l.prevAlpha[j] = true
	}
	l.prevGamma, err = SnapSimplex(l.caps, l.prevAlpha, cfg.Quantum)
	if err != nil {
		return nil, err
	}
	return l, nil
}

// Size returns the number of computers the controller manages.
func (l *L1) Size() int { return len(l.gmaps) }

// Table returns the candidate table the controller reads.
func (l *L1) Table() *CandidateTable { return l.table }

// SetRecorder attaches a decision flight recorder (nil detaches) and
// names the module index stamped onto records. Each Decide writes one
// summary record (Comp == -1: packed α mask, explored count, incumbent
// cost, decide latency) followed by one detail record per computer
// (its On state and γ share). Recording is observe-only: decisions are
// identical with it on or off.
func (l *L1) SetRecorder(r *flight.Recorder, module int) {
	l.rec, l.recModule = r, int16(module)
}

// record writes the decision boundary to the flight recorder.
func (l *L1) record(dec L1Decision, cost float64, elapsed time.Duration) {
	l.rec.Record(flight.Record{
		Level:    flight.LevelL1,
		Module:   l.recModule,
		Comp:     -1,
		FreqIdx:  -1,
		Explored: int32(dec.Explored),
		DecideNs: elapsed.Nanoseconds(),
		Alpha:    packBools(dec.Alpha),
		Cost:     cost,
	})
	for j := range dec.Gamma {
		l.rec.Record(flight.Record{
			Level:   flight.LevelL1,
			Module:  l.recModule,
			Comp:    int16(j),
			FreqIdx: -1,
			On:      dec.Alpha[j],
			Gamma:   dec.Gamma[j],
		})
	}
}

// SetMaxExplored caps the candidate-state evaluations each subsequent
// Decide may perform — the deterministic per-tick decision deadline (see
// llc.Searcher.SetMaxExplored); n <= 0 removes the cap. A Decide that
// exhausts it fails with llc.ErrBudget; the caller applies deterministic
// safe fallback settings for the tick and searches again next period.
func (l *L1) SetMaxExplored(n int) { l.maxExplored = n }

// SetState overrides the controller's notion of the previous decision —
// used when the manager forces a configuration (e.g. initial state).
func (l *L1) SetState(alpha []bool, gamma []float64) error {
	if len(alpha) != l.Size() || len(gamma) != l.Size() {
		return fmt.Errorf("controller: L1 state size mismatch")
	}
	copy(l.prevAlpha, alpha)
	copy(l.prevGamma, gamma)
	return nil
}

// Decide solves the L1 optimization (Eq. 14) by bounded search: candidate
// on/off vectors are the previous one and its single-computer toggles;
// candidate load fractions are the quantized neighbourhoods of
// capacity-proportional and previous allocations; the expected cost of
// each candidate is averaged over the forecast uncertainty band.
//
// The returned Alpha and Gamma belong to the controller and stay valid
// until its next Decide.
//
//hpm:hotpath
func (l *L1) Decide(obs L1Observation) (L1Decision, error) {
	m := l.Size()
	if len(obs.QueueLens) != m {
		return L1Decision{}, fmt.Errorf("controller: observation has %d queues, module has %d", len(obs.QueueLens), m)
	}
	if obs.Available == nil {
		obs.Available = make([]bool, m) //hpm:alloc nil-Available normalization; steady-state callers pass their scratch slice
		for j := range obs.Available {
			obs.Available[j] = true
		}
	}
	if len(obs.Available) != m {
		return L1Decision{}, fmt.Errorf("controller: observation has %d availability flags, module has %d", len(obs.Available), m)
	}
	if obs.CHat <= 0 {
		return L1Decision{}, fmt.Errorf("controller: L1 processing-time estimate %v <= 0", obs.CHat)
	}
	if obs.LambdaHat < 0 {
		obs.LambdaHat = 0
	}
	// A fully failed module cannot serve: degrade to the all-off
	// decision so the hierarchy keeps running (the L2 routes around the
	// module via its availability flag).
	if countOn(obs.Available) == 0 {
		clear(l.bestAlphaScr)
		clear(l.bestGammaScr)
		dec := L1Decision{Alpha: l.bestAlphaScr, Gamma: l.bestGammaScr}
		clear(l.prevAlpha)
		clear(l.prevGamma)
		l.decisions++
		if l.rec.Enabled() {
			l.record(dec, 0, 0)
		}
		return dec, nil
	}
	start := time.Now() //hpm:wallclock decide-latency for the §4.3 overhead metric; observe-only

	samples := bandSamples(&l.samplesBuf, obs.LambdaHat, obs.Delta, l.cfg.UncertaintySamples)
	bestCost := math.Inf(1)
	sc := llc.Scan{Prune: l.cfg.NonNegativeCosts, MaxExplored: l.maxExplored}
	copy(l.pr.obs.QueueLens, obs.QueueLens)
	l.pr.obs.CHat = obs.CHat
	for _, alpha := range l.alphaCandidates(obs.Available) {
		l.pr.alpha = alpha
		gammas := l.gammaCandidates(alpha)
		gi, cost, err := llc.OneStep(&sc, &l.pr, gammas, len(samples), bestCost)
		if err != nil {
			return L1Decision{}, searchErr("L1", err)
		}
		if gi >= 0 {
			bestCost = cost
			// Candidate vectors live in pools recycled on the next
			// generator call, so the incumbent is copied out now.
			copy(l.bestAlphaScr, alpha)
			copy(l.bestGammaScr, gammas[gi])
		}
	}
	if math.IsInf(bestCost, 1) {
		return L1Decision{}, fmt.Errorf("controller: L1 found no candidate configuration")
	}
	best := L1Decision{Alpha: l.bestAlphaScr, Gamma: l.bestGammaScr, Explored: sc.Explored}
	elapsed := time.Since(start) //hpm:wallclock decide-latency for the §4.3 overhead metric; observe-only
	copy(l.prevAlpha, best.Alpha)
	copy(l.prevGamma, best.Gamma)
	l.explored += sc.Explored
	l.decisions++
	l.computeTime += elapsed
	if l.rec.Enabled() {
		l.record(best, bestCost, elapsed)
	}
	return best, nil
}

// l1Pricer prices the γ candidates of one α for llc.OneStep against the
// decision in flight: the sampled arrival rates in L1.samplesBuf, and its
// own copy of the observation fields evaluate reads (QueueLens, CHat), so
// the controller keeps nothing of the caller's observation.
type l1Pricer struct {
	l     *L1
	alpha []bool
	obs   L1Observation
}

func (p *l1Pricer) Price(gamma []float64, si int, sum float64) (float64, error) {
	c, err := p.l.evaluate(p.alpha, gamma, p.obs, p.l.samplesBuf[si])
	return sum + c, err
}

func (p *l1Pricer) Finish(_ []float64, mean float64) float64 { return mean }

// bandSamples fills buf with the arrival rates a decision averages its
// cost over (§4.2): {max(0, λ̂−δ), λ̂, λ̂+δ} when banded and δ > 0, else λ̂.
func bandSamples(buf *[3]float64, lambda, delta float64, banded bool) []float64 {
	if !banded || delta <= 0 {
		buf[0] = lambda
		return buf[:1]
	}
	buf[0], buf[1], buf[2] = math.Max(0, lambda-delta), lambda, lambda+delta
	return buf[:]
}

// searchErr wraps a budget trip of the level's llc.OneStep search and
// passes a pricing error through as is.
func searchErr(level string, err error) error {
	if errors.Is(err, llc.ErrBudget) {
		return fmt.Errorf("controller: %s search: %w", level, err)
	}
	return err
}

// evaluate prices one (α, γ) candidate under one sampled arrival rate
// following Eq. 14: Σ_j α_j·J̃(x, γ_j) + W·‖Δα‖, with J̃ from the
// abstraction maps, over two periods so the boot dead time is priced:
// during the first period fresh computers draw base power only and their
// load share is renormalized onto the already-serving computers — exactly
// what the dispatcher does in the plant — and during the second period the
// full configuration serves from the first period's predicted end queues.
func (l *L1) evaluate(alpha []bool, gamma []float64, obs L1Observation, lambda float64) (float64, error) {
	switchCost := 0.0
	for j := range alpha {
		if alpha[j] && !l.prevAlpha[j] {
			switchCost += l.cfg.SwitchWeight
		}
	}
	// Queuing-stability soft barrier (§4.2): penalize candidates whose
	// steady-state full-speed utilization exceeds the stability bound on
	// any computer. The penalty dwarfs power costs so a stable candidate
	// always wins when one exists, while overload still yields the
	// least-bad allocation.
	const stabilityPenalty = 1e4
	for j := range alpha {
		if !alpha[j] || gamma[j] == 0 {
			continue
		}
		util := gamma[j] * lambda * obs.CHat / l.gmaps[j].Spec().SpeedFactor
		if util > StabilityUtil {
			switchCost += stabilityPenalty * (util - StabilityUtil)
		}
	}
	// Period 1: only computers already serving do work; fresh boots draw
	// base power.
	servingShare := 0.0
	anyServing := false
	for j := range alpha {
		if alpha[j] && l.prevAlpha[j] {
			servingShare += gamma[j]
			anyServing = true
		}
	}
	total := switchCost
	qEnd := l.qEndBuf
	for j := range alpha {
		qEnd[j] = obs.QueueLens[j]
		if !alpha[j] {
			continue
		}
		if !l.prevAlpha[j] {
			// Booting: base power for the period, no service.
			total += l.gmaps[j].Spec().Power.Base
			continue
		}
		share := gamma[j]
		if servingShare > 0 {
			share = gamma[j] / servingShare
		}
		cost, qe, _, _, err := l.gmaps[j].EvaluateInto(l.evalBuf[:], obs.QueueLens[j], share*lambda, obs.CHat)
		if err != nil {
			return 0, err
		}
		total += cost
		qEnd[j] = qe
	}
	if !anyServing && lambda > 0 {
		// Nothing serves during period 1: the whole period's demand
		// queues unserved. Penalize proportionally to the stranded work.
		total += lambda * l.cfg.PeriodSeconds
	}

	// Period 2: the full configuration serves from the predicted queues.
	for j := range alpha {
		if !alpha[j] {
			continue
		}
		cost, _, _, _, err := l.gmaps[j].EvaluateInto(l.evalBuf[:], qEnd[j], gamma[j]*lambda, obs.CHat)
		if err != nil {
			return 0, err
		}
		total += cost
	}
	return total, nil
}

// alphaCandidates returns the bounded on/off candidate set: the previous
// vector projected onto availability, every single-computer toggle of it,
// and the all-available-on vector, each with at least MinOn computers on
// (or as many as availability allows). Candidate vectors live in the
// controller's pool and are recycled on the next call.
func (l *L1) alphaCandidates(avail []bool) [][]bool {
	m := l.Size()
	minOn := l.cfg.MinOn
	if a := countOn(avail); a < minOn {
		minOn = a
	}
	base := l.alphaBase
	for j := range base {
		base[j] = l.prevAlpha[j] && avail[j]
	}
	ensureMinOn(base, avail, minOn)

	l.alphaPool.reset()
	l.alphaCands = l.alphaCands[:0]
	l.alphaKeys = l.alphaKeys[:0]
	add := func(a []bool) {
		if countOn(a) < minOn {
			return
		}
		k := packBools(a)
		for _, ek := range l.alphaKeys {
			if ek == k {
				return
			}
		}
		l.alphaKeys = append(l.alphaKeys, k)
		cp := l.alphaPool.get(m)
		copy(cp, a)
		l.alphaCands = append(l.alphaCands, cp)
	}
	add(base)
	cand := l.alphaScr
	for j := 0; j < m; j++ {
		copy(cand, base)
		if cand[j] {
			cand[j] = false
		} else if avail[j] {
			cand[j] = true
		} else {
			continue
		}
		add(cand)
	}
	for j := range cand {
		cand[j] = avail[j]
	}
	add(cand)
	return l.alphaCands
}

// gammaCandidates returns the bounded γ candidate set for a given α: the
// quantized neighbourhoods of the capacity-proportional seed and of the
// previous allocation projected onto α's support. The capacity-seeded
// part depends only on the α mask (capacities, quantum and depth are
// fixed), so it comes from the shape's candidate table; the
// previous-allocation part is regenerated each period into pooled vectors,
// deduped against the list by packed keys. Returned vectors are recycled on
// the next call; the table's are read, never written.
func (l *L1) gammaCandidates(alpha []bool) [][]float64 {
	mask := packBools(alpha)
	entry := l.table.lookup(mask)
	if entry == nil {
		seedCap, err := SnapSimplex(l.caps, alpha, l.cfg.Quantum)
		if err != nil {
			return nil
		}
		cands := SimplexNeighbours(seedCap, alpha, l.cfg.Quantum, l.cfg.NeighbourDepth)
		entry = &candidateSet{cands: cands, keys: make([]uint64, 0, len(cands)*l.gammaWords)}
		for _, g := range cands {
			entry.keys = appendGammaKey(entry.keys, g, l.cfg.Quantum, l.gammaPer)
		}
		entry = l.table.publish(mask, entry)
	}
	l.gammaPool.reset()
	l.gammaList = append(l.gammaList[:0], entry.cands...)
	l.gammaKeys = append(l.gammaKeys[:0], entry.keys...)

	// Previous-allocation neighbourhood (depth 1): prev snapped onto α's
	// support, then every single-quantum move — the same vectors, in the
	// same order, SimplexNeighbours(prev, α, quantum, 1) produces.
	prev, err := l.snap.snapInto(l.prevSnap, l.prevGamma, alpha, l.cfg.Quantum)
	if err != nil {
		return l.gammaList
	}
	l.prevSnap = prev
	l.addGammaIfNew(prev)
	cand := l.gammaScr
	for a := range prev {
		if !alpha[a] || prev[a] < l.cfg.Quantum-1e-9 {
			continue
		}
		for b := range prev {
			if b == a || !alpha[b] {
				continue
			}
			copy(cand, prev)
			cand[a] -= l.cfg.Quantum
			cand[b] += l.cfg.Quantum
			if cand[a] < -1e-9 {
				continue
			}
			if cand[a] < 0 {
				cand[a] = 0
			}
			l.addGammaIfNew(cand)
		}
	}
	return l.gammaList
}

// addGammaIfNew appends a copy of g to the candidate list unless its
// packed key is already present. The key is packed onto the tail of
// gammaKeys and dropped again on a match, so the scan needs no scratch.
func (l *L1) addGammaIfNew(g []float64) {
	w := l.gammaWords
	tail := len(l.gammaKeys)
	l.gammaKeys = appendGammaKey(l.gammaKeys, g, l.cfg.Quantum, l.gammaPer)
	key := l.gammaKeys[tail:]
	for at := 0; at < tail; at += w {
		// First word first: for one-word keys (m·bits ≤ 64, every
		// benchmarked shape) that is the whole comparison.
		if l.gammaKeys[at] == key[0] && slices.Equal(l.gammaKeys[at+1:at+w], key[1:]) {
			l.gammaKeys = l.gammaKeys[:tail]
			return
		}
	}
	cp := l.gammaPool.get(len(g))
	copy(cp, g)
	l.gammaList = append(l.gammaList, cp)
}

// Overhead reports accumulated overhead counters.
func (l *L1) Overhead() (explored, decisions int, compute time.Duration) {
	return l.explored, l.decisions, l.computeTime
}

func countOn(a []bool) int {
	n := 0
	for _, v := range a {
		if v {
			n++
		}
	}
	return n
}

func ensureMinOn(a, avail []bool, minOn int) {
	for j := 0; countOn(a) < minOn && j < len(a); j++ {
		if avail[j] && !a[j] {
			a[j] = true
		}
	}
}
