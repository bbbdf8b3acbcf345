// Package controller implements the three levels of the paper's control
// hierarchy for the cluster case study (Fig. 2):
//
//   - L0 (§4.1): per-computer DVFS frequency selection by exhaustive
//     lookahead over the fluid queue model;
//   - L1 (§4.2): per-module on/off vector {α_ij} and load-fraction vector
//     {γ_ij} by bounded neighbourhood search over an offline-learned
//     abstraction map g, with uncertainty-band chattering mitigation;
//   - L2 (§5.1): cluster-level module fractions {γ_i} minimizing the sum
//     of regression-tree cost approximations J̃_i, solved exactly by a
//     separable dynamic program over the quantized simplex.
//
// Invariants: every controller's Decide is a pure function of its
// observation and its own prior decision (for the bounded neighbourhood),
// so decisions are reproducible given the observation stream; the learned
// artifacts (GMap, TreeJTilde) are keyed by configuration fingerprints and
// are read-only during decision making, which is what lets managers share
// them across identical hardware and lets snapshots skip relearning.
//
// Invariant: the steady-state decision tick is allocation-free (see
// alloc_test.go) — candidate vectors live in per-controller pools, dedup
// runs on packed integer keys, abstraction-map probes go through the approx
// *Into APIs with controller-owned scratch, and L1 and L2 return decisions
// in buffers they own, valid until their next Decide.
//
// Invariant: the candidate sets that are pure functions of a shape — an
// L1's capacity-seeded γ neighbourhood per on/off mask — are memoized once
// per shape, not per controller: a CandidateTable (table.go) shared by
// every L1 built over the shape, read without a lock, bounded in floats,
// and never part of a controller's own state. L2 needs no such table: its
// dynamic program prices each module's terms directly.
//
// This file provides the quantized-simplex machinery the L1 and L2
// controllers share: load-fraction vectors must satisfy Σγ = 1, γ ≥ 0,
// quantized to a fixed step (the paper quantizes γ_ij at 0.05 and γ_i at
// 0.1).
package controller

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// simplexRem is one largest-remainder entry during snapping.
type simplexRem struct {
	idx  int
	frac float64
}

// snapper owns the scratch a repeated SnapSimplex needs, so controllers
// can quantize seed allocations every period without allocating.
type snapper struct {
	rems []simplexRem
}

// snapInto quantizes weights onto the simplex grid exactly like
// SnapSimplex, writing into dst when it has capacity. The result is
// bit-identical to SnapSimplex: same largest-remainder distribution, same
// (frac desc, idx asc) total order — the insertion sort below sorts a
// strict total order, so it yields the same permutation any comparison
// sort would.
func (sn *snapper) snapInto(dst, weights []float64, mask []bool, quantum float64) ([]float64, error) {
	if len(weights) == 0 || len(weights) != len(mask) {
		return nil, fmt.Errorf("controller: weights/mask lengths %d/%d", len(weights), len(mask))
	}
	units := int(math.Round(1 / quantum))
	if units < 1 || math.Abs(float64(units)*quantum-1) > 1e-9 {
		return nil, fmt.Errorf("controller: quantum %v does not divide 1", quantum)
	}
	active := 0
	total := 0.0
	for i, w := range weights {
		if mask[i] && w > 0 {
			total += w
		}
		if mask[i] {
			active++
		}
	}
	if active == 0 {
		return nil, fmt.Errorf("controller: empty mask")
	}
	if cap(dst) < len(weights) {
		dst = make([]float64, len(weights))
	}
	dst = dst[:len(weights)]
	for i := range dst {
		dst[i] = 0
	}
	rems := sn.rems[:0]
	assigned := 0
	for i, w := range weights {
		if !mask[i] {
			continue
		}
		share := 0.0
		if total > 0 {
			share = math.Max(w, 0) / total * float64(units)
		} else {
			share = float64(units) / float64(active)
		}
		fl := math.Floor(share)
		dst[i] = fl
		assigned += int(fl)
		rems = append(rems, simplexRem{idx: i, frac: share - fl})
	}
	// Insertion sort on (frac desc, idx asc): allocation-free and, being
	// a strict total order, identical to any other comparison sort.
	for i := 1; i < len(rems); i++ {
		r := rems[i]
		j := i - 1
		for j >= 0 && (rems[j].frac < r.frac || (rems[j].frac == r.frac && rems[j].idx > r.idx)) {
			rems[j+1] = rems[j]
			j--
		}
		rems[j+1] = r
	}
	sn.rems = rems[:0] // keep grown capacity
	for k := 0; assigned < units; k++ {
		dst[rems[k%len(rems)].idx]++
		assigned++
	}
	for assigned > units {
		// Possible only under floating-point pathologies; trim from the
		// largest entry.
		maxI := -1
		for i := range dst {
			if mask[i] && dst[i] > 0 && (maxI < 0 || dst[i] > dst[maxI]) {
				maxI = i
			}
		}
		dst[maxI]--
		assigned--
	}
	for i := range dst {
		dst[i] *= quantum
	}
	return dst, nil
}

// SnapSimplex quantizes weights onto the simplex grid with the given
// quantum: the result has entries that are non-negative multiples of
// quantum summing exactly to 1 (within floating point), distributed by the
// largest-remainder method, and zero wherever mask is false. It returns an
// error if quantum does not divide 1 within tolerance, or the mask admits
// no entries.
func SnapSimplex(weights []float64, mask []bool, quantum float64) ([]float64, error) {
	var sn snapper
	return sn.snapInto(nil, weights, mask, quantum)
}

// gammaLayout returns the packed dedup-key layout for γ vectors of length
// n at the given quantum: bits per entry (each entry holds its unit count,
// 0..1/quantum) and the key length in 64-bit words, ⌈n·bits/64⌉. Every
// shape a benchmark runs (m ≤ 4) is one word.
func gammaLayout(n int, quantum float64) (perEntry uint, words int) {
	perEntry = uint(bits.Len(uint(math.Round(1 / quantum))))
	return perEntry, (n*int(perEntry) + 63) / 64
}

// appendGammaKey appends g's packed key — its unit counts, perEntry bits
// each, packed densely so an entry may straddle two words — to dst.
func appendGammaKey(dst []uint64, g []float64, quantum float64, perEntry uint) []uint64 {
	w, at := uint64(0), uint(0)
	for _, v := range g {
		u := uint64(int(math.Round(v / quantum)))
		w |= u << at
		at += perEntry
		if at >= 64 {
			dst = append(dst, w)
			at -= 64
			w = u >> (perEntry - at) // the bits that spilled past the word
		}
	}
	if at > 0 {
		dst = append(dst, w)
	}
	return dst
}

// gammaSeen is a dedup set over γ vectors of one (length, quantum) shape,
// keyed by their packed words: an open-addressing table of indices into
// the flat key store, so a vector of any length costs one hash and, on a
// hit, one word-wise compare.
type gammaSeen struct {
	quantum  float64
	perEntry uint
	words    int
	n        int      // keys inserted
	keys     []uint64 // inserted keys, flat, words per key
	slots    []int32  // key index + 1; 0 = empty; len is a power of two
}

func newGammaSeen(n int, quantum float64) *gammaSeen {
	per, words := gammaLayout(n, quantum)
	return &gammaSeen{quantum: quantum, perEntry: per, words: words, slots: make([]int32, 64)}
}

// slot returns the table position holding key, or the empty position
// where it belongs.
func (gs *gammaSeen) slot(key []uint64) int {
	h := uint64(0)
	for _, w := range key {
		h = (h ^ w) * 0x9E3779B97F4A7C15
		h ^= h >> 32
	}
	mask := len(gs.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		at := int(gs.slots[i]) - 1
		if at < 0 || slices.Equal(gs.keys[at*gs.words:(at+1)*gs.words], key) {
			return i
		}
	}
}

// insert reports whether g was new, adding it if so.
func (gs *gammaSeen) insert(g []float64) bool {
	tail := len(gs.keys)
	gs.keys = appendGammaKey(gs.keys, g, gs.quantum, gs.perEntry)
	i := gs.slot(gs.keys[tail:])
	if gs.slots[i] != 0 {
		gs.keys = gs.keys[:tail]
		return false
	}
	gs.n++
	gs.slots[i] = int32(gs.n)
	if 2*gs.n > len(gs.slots) {
		// Keep the load factor at most one half: re-seat every key in a
		// table twice the size.
		gs.slots = make([]int32, 2*len(gs.slots))
		for k := 0; k < gs.n; k++ {
			gs.slots[gs.slot(gs.keys[k*gs.words:(k+1)*gs.words])] = int32(k + 1)
		}
	}
	return true
}

// SimplexNeighbours generates the quantized-simplex neighbourhood of gamma:
// all vectors obtained by moving up to depth quanta from one masked entry
// to another, each still summing to 1. The input vector itself is included
// first. Entries outside the mask stay zero. Duplicate vectors are removed.
func SimplexNeighbours(gamma []float64, mask []bool, quantum float64, depth int) [][]float64 {
	seen := newGammaSeen(len(gamma), quantum)
	var out [][]float64
	add := func(g []float64) bool {
		if !seen.insert(g) {
			return false
		}
		cp := make([]float64, len(g))
		copy(cp, g)
		out = append(out, cp)
		return true
	}
	add(gamma)
	frontier := [][]float64{gamma}
	cand := make([]float64, len(gamma))
	for d := 0; d < depth; d++ {
		var next [][]float64
		for _, g := range frontier {
			for a := range g {
				if !mask[a] || g[a] < quantum-1e-9 {
					continue
				}
				for b := range g {
					if b == a || !mask[b] {
						continue
					}
					copy(cand, g)
					cand[a] -= quantum
					cand[b] += quantum
					if cand[a] < -1e-9 {
						continue
					}
					if cand[a] < 0 {
						cand[a] = 0
					}
					if add(cand) {
						next = append(next, out[len(out)-1])
					}
				}
			}
		}
		frontier = next
	}
	return out
}
