// Package controller implements the three levels of the paper's control
// hierarchy for the cluster case study (Fig. 2):
//
//   - L0 (§4.1): per-computer DVFS frequency selection by exhaustive
//     lookahead over the fluid queue model;
//   - L1 (§4.2): per-module on/off vector {α_ij} over a bounded candidate
//     set (the vector in force, its single toggles, all on) and, for each,
//     the exact load-fraction vector {γ_ij} by a min-plus program over an
//     offline-learned abstraction map g, with uncertainty-band chattering
//     mitigation;
//   - L2 (§5.1): cluster-level module fractions {γ_i} minimizing the sum
//     of regression-tree cost approximations J̃_i, solved exactly by a
//     separable dynamic program over the quantized simplex.
//
// Invariants: every controller's Decide is a pure function of its
// observation — the L1's includes the on/off vector in force, the L2's the
// module split in force — so decisions are reproducible given the
// observation stream, and a controller's checkpoint is its overhead counts
// alone; the learned artifacts (GMap, TreeJTilde)
// are keyed by configuration fingerprints and are read-only during
// decision making, which is what lets managers share them across identical
// hardware and lets snapshots skip relearning.
//
// Invariant: the steady-state decision tick is allocation-free (see
// alloc_test.go) — L1 and L2 price into tables they size once, L1's
// abstraction-map probes go through controller-owned scratch and a per-cell
// memo, and L1 and L2 return decisions in buffers they own, valid until
// their next Decide. Neither keeps a candidate set between decisions: both
// programs price each term directly, so a controller holds nothing that is
// a function of its shape alone.
//
// This file provides SnapSimplex, which the controllers, the engine and
// the centralized comparator use to seed load-fraction vectors: they must
// satisfy Σγ = 1, γ ≥ 0, quantized to a fixed step (the paper quantizes
// γ_ij at 0.05 and γ_i at 0.1); and EqualSplit, the module split before
// the L2's first decision.
package controller

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// simplexRem is one largest-remainder entry during snapping.
type simplexRem struct {
	idx  int
	frac float64
}

// SnapSimplex quantizes weights onto the simplex grid with the given
// quantum: the result has entries that are non-negative multiples of
// quantum summing exactly to 1 (within floating point), distributed by the
// largest-remainder method, and zero wherever mask is false. It returns an
// error if quantum does not divide 1 within tolerance, or the mask admits
// no entries.
func SnapSimplex(weights []float64, mask []bool, quantum float64) ([]float64, error) {
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
	dst := make([]float64, len(weights))
	var rems []simplexRem
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
	// Largest remainder first, ties to the lower index: a strict total
	// order, so any comparison sort yields the same permutation.
	slices.SortFunc(rems, func(a, b simplexRem) int {
		return cmp.Or(cmp.Compare(b.frac, a.frac), cmp.Compare(a.idx, b.idx))
	})
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

// EqualSplit writes into dst, and returns, the module split before an
// L2's first decision: SnapSimplex's equal weights over len(dst) modules
// at QuantumL2 — ⌊10/p⌋ quanta each, one more to each of the first 10 mod
// p — without allocating.
func EqualSplit(dst []float64) []float64 {
	p := len(dst)
	for i := range dst {
		u := unitsL2 / p
		if i < unitsL2%p {
			u++
		}
		dst[i] = float64(u) * QuantumL2
	}
	return dst
}
