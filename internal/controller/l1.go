package controller

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"hierctl/internal/llc"
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
	// MinOn is the minimum number of operational computers (≥ 1 keeps
	// the module able to serve).
	MinOn int
	// UncertaintySamples enables the §4.2 chattering mitigation: when
	// true the expected cost is averaged over {λ̂−δ, λ̂, λ̂+δ}; when
	// false only the nominal forecast is used (the EXT2 ablation).
	UncertaintySamples bool
}

// maxUnitsL1 bounds the quanta one decision places (Quantum ≥ 1/100): the
// program's tables grow with their square and its work with their cube.
const maxUnitsL1 = 100

// DefaultL1Config returns the paper's §4.3 settings.
func DefaultL1Config() L1Config {
	return L1Config{
		PeriodSeconds:      DefaultPeriodL1,
		Quantum:            DefaultQuantumL1,
		SwitchWeight:       DefaultSwitchWeight,
		MinOn:              1,
		UncertaintySamples: true,
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
	if units > maxUnitsL1 {
		return fmt.Errorf("controller: L1 quantum %v places more than %d quanta", c.Quantum, maxUnitsL1)
	}
	if c.SwitchWeight < 0 {
		return fmt.Errorf("controller: L1 switch weight %v < 0", c.SwitchWeight)
	}
	if c.MinOn < 1 {
		return fmt.Errorf("controller: L1 min-on %d < 1", c.MinOn)
	}
	return nil
}

// ValidateModule reports whether an L1 of this configuration can manage a
// module of m computers.
func (c L1Config) ValidateModule(m int) error {
	if c.MinOn > m {
		return fmt.Errorf("controller: L1 min-on %d exceeds module size %d", c.MinOn, m)
	}
	if m > 64 {
		return fmt.Errorf("controller: L1 module size %d exceeds 64 (the on/off mask is one uint64)", m)
	}
	return nil
}

// L1Observation is the aggregated module state x_L1 (Eq. 9) plus the
// environment estimates ω̂_L1 (Eq. 11–12) the L1 controller consumes.
type L1Observation struct {
	// QueueLens holds the observed queue length of each computer.
	QueueLens []float64
	// On is the operating state vector in force: On[j] is true if computer
	// j is on (or booting) under the decision being replaced. Nil means
	// all on, a fresh module's state. It may be the previous decision's
	// Alpha, which Decide reads before it overwrites.
	On []bool
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
	// Explored counts the abstraction-map probes the decision made: each
	// computer probes each cell of its map at most once (overhead metric).
	Explored int
	// Cost is the Eq. 14 cost of the chosen mask and split (see Decide),
	// the price the decision was made at; 0 for a fully failed module's
	// all-off decision, which prices nothing.
	Cost float64
}

// PackBools packs an on/off vector into a uint64 bitmask, bit j set when
// a[j] is (len ≤ 64, the L1's module bound): the L1's candidate masks and
// the flight record's α.
func PackBools(a []bool) uint64 {
	k := uint64(0)
	for i, v := range a {
		if v {
			k |= 1 << uint(i)
		}
	}
	return k
}

// probe is one memoized abstraction-map cell of the computer being priced:
// its cost and the grid index of its end-of-period queue, valid while
// stamp is the scratch's.
type probe struct {
	cost  float64
	qEnd  int32
	stamp uint32
}

// L1 is the module-level controller. Construct with NewL1.
//
// L1 always prices the boot dead time (§1's "control actions with dead
// times ... requiring proactive control"), because the request-level plant
// really imposes it: each candidate is priced over two periods, the first
// with fresh computers booting (see Decide). The paper's optimistic
// N_L1 = 1 pricing, where a switched-on computer serves at once, is not
// offered.
//
// The controller holds no decision between calls: the on/off vector in
// force is part of the module state it observes (L1Observation.On), so a
// decision is a pure function of its observation. Nor does it hold the
// decision's working memory: its term, probe-memo and min-plus tables and
// the decision it returns live in the Scratch each Decide is handed, sized
// there by the module and the map grid (the memo grows to the
// arrival-rate cells the load reaches). A Decide in a warm Scratch
// allocates nothing (pinned by TestL1DecideSteadyStateAllocs). On/off
// candidates are 64-bit masks, hence the m ≤ 64 bound in NewL1. Not safe
// for concurrent use.
type L1 struct {
	cfg   L1Config
	gmaps []*GMap
	units int // quanta per decision, 1/Quantum
	tri   int // a staying computer's terms: one per (u, S), u ≤ S ≤ units

	// maxExplored is the decision budget (see SetMaxExplored); 0 = none.
	maxExplored int
}

// l1Scratch is an L1 decision's working memory, a Scratch's L1 share. on
// is the observation's On as a mask, and avail the all-true flags a nil
// Available stands for. Computer j's mean term for u quanta
// at serving share S is terms[row(j, S) + u]; memo holds the probes of the
// computer being priced, stride arrival-rate cells per queue cell.
type l1Scratch struct {
	on         uint64
	avail      []bool
	samplesBuf [3]float64
	layout     int   // stayAtUnits, stayAlone or stayShared
	off        []int // computer j's terms start at terms[off[j]] (see row)
	terms      []float64
	memo       []probe
	stride     int
	stamp      uint32
	probes     int   // probes so far, checked against maxExplored
	err        error // the first failed probe's error
	evalBuf    [gColWidth]float64
	masks      []uint64
	staying    []int
	booting    []int
	tables     []float64 // the booting, then the staying suffix table, (len+1)·(units+1) each
	// bestAlpha and bestGamma hold the incumbent of the decision in
	// flight and, once Decide returns, the decision it hands out.
	bestAlpha []bool
	bestGamma []float64
}

// l1Decision is one L1 decision in flight: the controller and the scratch
// it decides in.
type l1Decision struct {
	*L1
	*l1Scratch
}

// NewL1 builds an L1 controller over the module's learned abstraction
// maps (one per computer, in module order).
func NewL1(cfg L1Config, gmaps []*GMap) (*L1, error) {
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
	if err := cfg.ValidateModule(len(gmaps)); err != nil {
		return nil, err
	}
	units := int(math.Round(1 / cfg.Quantum))
	w := units + 1
	return &L1{cfg: cfg, gmaps: gmaps, units: units, tri: w * (w + 1) / 2}, nil
}

// fit sizes the scratch's tables for this controller's module: every
// computer holds one row of terms, except under stayShared, where at most
// m−1 staying computers hold a row per S beside a booting one (that takes
// three computers); the two suffix tables share (m+2)·(units+1) floats.
func (l l1Decision) fit() {
	m, w := l.Size(), l.units+1
	n := m * w
	if m >= 3 {
		n = (m-1)*l.tri + w
	}
	l.terms = resize(l.terms, n)
	l.tables = resize(l.tables, (m+2)*w)
	l.off = resize(l.off, m)
	l.staying = resize(l.staying, m)[:0]
	l.booting = resize(l.booting, m)[:0]
	l.bestAlpha = resize(l.bestAlpha, m)
	l.bestGamma = resize(l.bestGamma, m)
}

// Size returns the number of computers the controller manages.
func (l *L1) Size() int { return len(l.gmaps) }

// SetMaxExplored caps the abstraction-map probes each subsequent Decide
// may make — the deterministic per-tick decision deadline (see
// llc.Searcher.SetMaxExplored); n <= 0 removes the cap. A Decide that
// exhausts it fails with llc.ErrBudget; the caller applies deterministic
// safe fallback settings for the tick and searches again next period.
func (l *L1) SetMaxExplored(n int) { l.maxExplored = n }

// Decide solves the L1 optimization (Eq. 14) over the bounded on/off
// candidates of alphaCandidates, each with its exact load split: every
// composition of the quanta over the mask's computers is priced, by a
// min-plus program rather than one by one.
//
// The cost of mask α and split u, averaged over the forecast band, is
// priced over two periods so the boot dead time counts. A computer that
// was on and stays on serves from period 1, with share u_j/S of the module
// load, S being the quanta on such computers; a booting computer draws
// base power in period 1; in period 2 every on computer serves its γ_j =
// u_j·quantum from its predicted queue. Each on computer's term is the
// band-sample mean of its per-sample costs — period 1, period 2, then the
// §4.2 stability penalty — and the mask's cost is the right fold
// c_1 + (c_2 + (… + (c_k + W·boots))) over its staying computers, then its
// booting ones, in module order; when S = 0 nothing serves in period 1 and
// the stranded work, λ·T_L1 averaged over the band, is added to the fold.
//
// A staying computer's terms depend on (u, S) and a booting one's on u
// alone, so each is priced once per decision, shared by every mask, with
// the map probed at most once per cell and computer (ĉ is fixed within a
// decision and g is a nearest-cell table). For each S, a min-plus table
// over the staying computers onto one over the booting ones gives the
// mask's optimum exactly — rounded addition is monotone — and the
// backtrack takes, computer by computer, the fewest quanta attaining the
// suffix minimum. Masks are tried in order; a later one wins only when
// strictly cheaper.
//
// The decision is worked out in sc, whose L1 share is sized to the module
// first. The returned Alpha and Gamma alias sc and stay valid until the
// next L1 Decide on it; a caller that keeps a decision longer copies it.
//
//hpm:hotpath
func (l *L1) Decide(sc *Scratch, obs L1Observation) (L1Decision, error) {
	m := l.Size()
	if len(obs.QueueLens) != m {
		return L1Decision{}, fmt.Errorf("controller: observation has %d queues, module has %d", len(obs.QueueLens), m)
	}
	if obs.Available == nil {
		obs.Available = allOn(&sc.l1.avail, m)
	}
	if len(obs.Available) != m {
		return L1Decision{}, fmt.Errorf("controller: observation has %d availability flags, module has %d", len(obs.Available), m)
	}
	if obs.On != nil && len(obs.On) != m {
		return L1Decision{}, fmt.Errorf("controller: observation has %d on/off flags, module has %d", len(obs.On), m)
	}
	// The grid indexes finite values only (an infinite queue clamps to its
	// edge).
	if sum := obs.CHat + obs.LambdaHat + obs.Delta; !(obs.CHat > 0) || math.IsNaN(sum) || math.IsInf(sum, 0) {
		return L1Decision{}, fmt.Errorf("controller: L1 estimates ĉ %v, λ̂ %v ± %v: want ĉ > 0, all finite", obs.CHat, obs.LambdaHat, obs.Delta)
	}
	for j, q := range obs.QueueLens {
		if math.IsNaN(q) {
			return L1Decision{}, fmt.Errorf("controller: queue length of computer %d is NaN", j)
		}
	}
	if obs.LambdaHat < 0 {
		obs.LambdaHat = 0
	}
	// The mask first: On may alias the scratch's last decision.
	d := l1Decision{l, &sc.l1}
	d.on = ^uint64(0) >> (64 - m)
	if obs.On != nil {
		d.on = PackBools(obs.On)
	}
	d.fit()
	// A fully failed module cannot serve: degrade to the all-off
	// decision so the hierarchy keeps running (the L2 routes around the
	// module via its availability flag).
	if countOn(obs.Available) == 0 {
		clear(d.bestAlpha)
		clear(d.bestGamma)
		return L1Decision{Alpha: d.bestAlpha, Gamma: d.bestGamma}, nil
	}
	samples := bandSamples(&d.samplesBuf, obs.LambdaHat, obs.Delta, l.cfg.UncertaintySamples)
	masks := d.alphaCandidates(obs.Available)
	if err := d.priceTerms(obs, samples, masks); err != nil {
		return L1Decision{}, searchErr("L1", err)
	}
	stranded := 0.0
	for _, lam := range samples {
		stranded += lam * l.cfg.PeriodSeconds
	}
	stranded /= float64(len(samples))
	bestCost := math.Inf(1)
	for _, mask := range masks {
		if cost := d.solve(mask, stranded, bestCost); cost < bestCost {
			bestCost = cost
		}
	}
	if math.IsInf(bestCost, 1) {
		return L1Decision{}, fmt.Errorf("controller: L1 found no candidate configuration")
	}
	return L1Decision{Alpha: d.bestAlpha, Gamma: d.bestGamma, Explored: d.probes, Cost: bestCost}, nil
}

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

// searchErr wraps a budget trip of the level's search and passes a pricing
// error through as is.
func searchErr(level string, err error) error {
	if errors.Is(err, llc.ErrBudget) {
		return fmt.Errorf("controller: %s search: %w", level, err)
	}
	return err
}

// stabilityPenalty is the §4.2 queuing-stability soft barrier on one
// computer carrying γ of arrival rate λ: a full-speed utilization beyond
// StabilityUtil costs 10⁴ per unit of excess, dwarfing power costs so a
// stable split always wins when one exists, while overload still yields
// the least-bad one.
func stabilityPenalty(gamma, lambda, cHat, speed float64) float64 {
	if util := gamma * lambda * cHat / speed; util > StabilityUtil {
		return 1e4 * (util - StabilityUtil)
	}
	return 0
}

// How a decision lays out a staying computer's terms: the (u, S) pairs
// its masks can read (see row).
const (
	// stayAtUnits: every available computer was on, so no mask boots one
	// and S = units; one row, every u.
	stayAtUnits = iota
	// stayAlone: no mask keeps two computers on that were on, so a staying
	// computer holds all S quanta; one row, u = S.
	stayAlone
	// stayShared: every u ≤ S, a row per S.
	stayShared
)

// priceTerms fills every available computer's terms (see Decide): a
// computer that was on is priced as staying, at the (u, S) pairs the
// masks can read, and one that was off as booting.
func (l l1Decision) priceTerms(obs L1Observation, samples []float64, masks []uint64) error {
	m, w := l.Size(), l.units+1
	l.layout = stayAtUnits
	for j, a := range obs.Available {
		if a && !l.wasOn(j) {
			l.layout = stayAlone
		}
	}
	for _, mask := range masks {
		if l.layout == stayAlone && bits.OnesCount64(mask&l.on) > 1 {
			l.layout = stayShared
		}
	}
	// Every probed rate is at most the band's top rate λ_max up to an ulp,
	// so it lands in the cells up to index(λ_max)+1.
	lamMax := samples[len(samples)-1]
	l.stride = 0
	for _, g := range l.gmaps {
		l.stride = max(l.stride, min(g.levels(1), g.axis(1).Index(lamMax)+2))
	}
	if n := l.queueCells() * l.stride; n > len(l.memo) {
		l.memo = make([]probe, n) //hpm:alloc the probe memo grows to the load's high-water mark
	}
	at := 0
	for j, a := range obs.Available {
		l.off[j] = at
		if a && l.wasOn(j) && l.layout == stayShared {
			at += l.tri
		} else if a {
			at += w
		}
	}
	l.probes, l.err = 0, nil
	for j, g := range l.gmaps {
		if !obs.Available[j] {
			continue
		}
		if l.stamp++; l.stamp == 0 {
			clear(l.memo)
			l.stamp = 1
		}
		terms := l.terms[l.off[j]:]
		if j+1 < m {
			terms = terms[:l.off[j+1]-l.off[j]]
		}
		clear(terms)
		pc := g.axis(2).Index(obs.CHat)
		lAxis := g.axis(1)
		qi := g.axis(0).Index(obs.QueueLens[j])
		spec := g.Spec()
		for _, lam := range samples {
			for u := 0; u <= l.units; u++ {
				gam := float64(u) * l.cfg.Quantum
				li := lAxis.Index(gam * lam)
				stab := stabilityPenalty(gam, lam, obs.CHat, spec.SpeedFactor)
				// The memo's hit path is written out: a call per probe
				// costs a fifth of the decision.
				if !l.wasOn(j) {
					p := &l.memo[qi*l.stride+li]
					if p.stamp != l.stamp {
						l.fill(g, pc, p, qi, li)
					}
					terms[u] += spec.Power.Base + p.cost + stab
				} else {
					sLo, sHi := u, l.units
					switch l.layout {
					case stayAtUnits:
						sLo = l.units
					case stayAlone:
						sHi = u
					}
					for S := sLo; S <= sHi; S++ {
						share := 0.0
						if S > 0 {
							share = float64(u) / float64(S)
						}
						li1 := lAxis.Index(share * lam)
						p1 := &l.memo[qi*l.stride+li1]
						if p1.stamp != l.stamp {
							l.fill(g, pc, p1, qi, li1)
						}
						q2 := int(p1.qEnd)
						p2 := &l.memo[q2*l.stride+li]
						if p2.stamp != l.stamp {
							l.fill(g, pc, p2, q2, li)
						}
						terms[l.row(j, S)-l.off[j]+u] += p1.cost + p2.cost + stab
					}
				}
				if l.err != nil {
					return l.err
				}
			}
		}
		for e := range terms {
			terms[e] /= float64(len(samples))
		}
	}
	return nil
}

// queueCells returns the most queue-length levels of the module's maps.
func (l *L1) queueCells() int {
	n := 0
	for _, g := range l.gmaps {
		n = max(n, g.levels(0))
	}
	return n
}

// fill probes cell (qi, li) of the priced computer's map g at the
// decision's ĉ index pc into its memo entry p, counting the probe against
// the budget; a failure is left in l.err.
func (l l1Decision) fill(g *GMap, pc int, p *probe, qi, li int) {
	cost, qEnd, ok := g.cellInto(l.evalBuf[:], qi, li, pc)
	if l.probes++; !ok {
		l.err = fmt.Errorf("controller: gmap cell (%d, %d, %d) missing", qi, li, pc)
	} else if l.maxExplored > 0 && l.probes > l.maxExplored {
		l.err = llc.ErrBudget
	}
	*p = probe{cost: cost, qEnd: int32(g.axis(0).Index(qEnd)), stamp: l.stamp}
}

// solve returns the cheapest cost of mask over every split of the quanta
// (see Decide) and, when it is below limit, makes that split the
// incumbent.
func (l l1Decision) solve(mask uint64, stranded, limit float64) float64 {
	w := l.units + 1
	st, bt := l.staying[:0], l.booting[:0]
	for j := range l.gmaps {
		if mask>>j&1 == 0 {
			continue
		}
		if l.wasOn(j) {
			st = append(st, j)
		} else {
			bt = append(bt, j)
		}
	}
	// The booting computers' suffix table, onto the switching cost; the
	// staying computers' follows it in the same buffer.
	nb := len(bt)
	boot, stay := l.tables[:(nb+1)*w], l.tables[(nb+1)*w:]
	for r := 1; r < w; r++ {
		boot[nb*w+r] = math.Inf(1)
	}
	boot[nb*w] = float64(nb) * l.cfg.SwitchWeight
	for i := nb - 1; i >= 0; i-- {
		minPlus(boot[i*w:(i+1)*w], l.terms[l.row(bt[i], 0):], boot[(i+1)*w:], 0, l.units, i == nb-1)
	}
	// S: every quantum on staying computers when none boots, none when
	// none stays.
	sLo, sHi := 0, l.units
	if nb == 0 {
		sLo = l.units
	}
	if len(st) == 0 {
		sHi = 0
	}
	best, bestS := math.Inf(1), -1
	for S := sLo; S <= sHi; S++ {
		v := l.stayFold(stay, st, S, boot[l.units-S])
		if S == 0 {
			v += stranded
		}
		if v < best {
			best, bestS = v, S
		}
	}
	if !(best < limit) {
		return best
	}
	clear(l.bestAlpha)
	clear(l.bestGamma)
	l.stayFold(stay, st, bestS, boot[l.units-bestS])
	l.backtrack(st, stay, bestS, bestS)
	l.backtrack(bt, boot, l.units-bestS, 0)
	return best
}

// stayFold fills the staying computers' suffix table at serving share S
// onto base, the booting optimum for the other units−S quanta, and returns
// its head: the mask's least fold with S quanta staying.
func (l l1Decision) stayFold(stay []float64, st []int, S int, base float64) float64 {
	w := l.units + 1
	ns := len(st)
	for r := 1; r <= S; r++ {
		stay[ns*w+r] = math.Inf(1)
	}
	stay[ns*w] = base
	for i := ns - 1; i >= 0; i-- {
		lo := 0
		if i == 0 {
			lo = S // the head needs only the whole share
		}
		minPlus(stay[i*w:(i+1)*w], l.terms[l.row(st[i], S):], stay[(i+1)*w:], lo, S, i == ns-1)
	}
	return stay[S]
}

// minPlus sets dst[r] = min over u ≤ r of c[u] + next[r−u], for r in
// [lo, hi]. Over a table's base row, finite at r = 0 only, that is
// c[r] + next[0].
func minPlus(dst, c, next []float64, lo, hi int, base bool) {
	if base {
		for r := lo; r <= hi; r++ {
			dst[r] = c[r] + next[0]
		}
		return
	}
	for r := lo; r <= hi; r++ {
		best := math.Inf(1)
		for u := 0; u <= r; u++ {
			if v := c[u] + next[r-u]; v < best {
				best = v
			}
		}
		dst[r] = best
	}
}

// firstOptimum returns the fewest quanta u ≤ r attaining
// best = min over u of c[u] + next[r−u], the row minPlus filled: the
// backtrack's step, shared by L1 and L2.
func firstOptimum(c, next []float64, r int, best float64) int {
	u := 0
	for ; u < r && c[u]+next[r-u] != best; u++ {
	}
	return u
}

// backtrack walks a suffix table from r quanta, giving each computer the
// fewest quanta that attain its suffix minimum, into the incumbent; S is
// the serving share the computers' terms are read at.
func (l l1Decision) backtrack(comps []int, table []float64, r, S int) {
	w := l.units + 1
	for i, j := range comps {
		u := firstOptimum(l.terms[l.row(j, S):], table[(i+1)*w:], r, table[i*w+r])
		l.bestAlpha[j] = true
		l.bestGamma[j] = float64(u) * l.cfg.Quantum
		r -= u
	}
}

// row returns where computer j's terms at serving share S start, so that
// its term for u quanta is terms[row(j, S) + u]: a booting computer's
// terms are one row of units+1, and so are a staying one's unless the
// layout is stayShared, where they are rows S = 0..units of S+1 terms
// each.
func (l l1Decision) row(j, S int) int {
	if !l.wasOn(j) || l.layout != stayShared {
		return l.off[j]
	}
	return l.off[j] + S*(S+1)/2
}

// wasOn reports whether computer j is on in the decision in force.
func (l l1Decision) wasOn(j int) bool { return l.on>>j&1 != 0 }

// alphaCandidates returns the bounded on/off candidate set as masks: the
// vector in force projected onto availability, every single-computer
// toggle of it, and the all-available-on vector, each with at least MinOn
// computers on (or as many as availability allows), in that order without
// repeats. The slice is the scratch's, recycled on the next call.
func (l l1Decision) alphaCandidates(avail []bool) []uint64 {
	minOn := min(l.cfg.MinOn, countOn(avail))
	all := PackBools(avail)
	base := l.on & all
	for j := 0; bits.OnesCount64(base) < minOn; j++ {
		base |= all & (1 << j)
	}
	l.masks = l.masks[:0]
	add := func(mask uint64) {
		if bits.OnesCount64(mask) >= minOn && !slices.Contains(l.masks, mask) {
			l.masks = append(l.masks, mask)
		}
	}
	add(base)
	for j := range l.gmaps {
		if bit := uint64(1) << j; base&bit != 0 || all&bit != 0 {
			add(base ^ bit)
		}
	}
	add(all)
	return l.masks
}

// allOn returns *buf at length n with every flag true: a nil Available's
// normalization, into the scratch.
func allOn(buf *[]bool, n int) []bool {
	*buf = resize(*buf, n)
	for i := range *buf {
		(*buf)[i] = true
	}
	return *buf
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
