package controller

// The historical allocating, string-keyed candidate generators, kept as
// the reference the production ones (the L1's on/off masks, the packed
// multi-word keys of SimplexNeighbours) are compared against. Nothing here
// shares code with the packed keys: vectors are deduplicated by a
// fixed-width byte string of their unit counts.

import "math"

// gammaKey is the historical string dedup key of a γ vector.
func gammaKey(g []float64, quantum float64) string {
	buf := make([]byte, 0, len(g)*2)
	for _, v := range g {
		u := uint16(int(math.Round(v / quantum)))
		buf = append(buf, byte(u), byte(u>>8))
	}
	return string(buf)
}

func alphaKey(a []bool) string {
	buf := make([]byte, len(a))
	for i, v := range a {
		if v {
			buf[i] = 1
		}
	}
	return string(buf)
}

// simplexNeighboursLegacy is SimplexNeighbours over a string-keyed set.
func simplexNeighboursLegacy(gamma []float64, mask []bool, quantum float64, depth int) [][]float64 {
	seen := map[string]bool{}
	var out [][]float64
	add := func(g []float64) bool {
		k := gammaKey(g, quantum)
		if seen[k] {
			return false
		}
		seen[k] = true
		out = append(out, append([]float64(nil), g...))
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

// alphaCandidatesLegacy is the historical on/off candidate generator.
func alphaCandidatesLegacy(l *L1, avail []bool) [][]bool {
	m := l.Size()
	minOn := l.cfg.MinOn
	if a := countOn(avail); a < minOn {
		minOn = a
	}
	base := make([]bool, m)
	for j := range base {
		base[j] = l.prevAlpha[j] && avail[j]
	}
	for j := 0; countOn(base) < minOn && j < m; j++ {
		if avail[j] && !base[j] {
			base[j] = true
		}
	}

	seen := map[string]bool{}
	var out [][]bool
	add := func(a []bool) {
		if countOn(a) < minOn {
			return
		}
		k := alphaKey(a)
		if !seen[k] {
			seen[k] = true
			out = append(out, append([]bool(nil), a...))
		}
	}
	add(base)
	for j := 0; j < m; j++ {
		cand := append([]bool(nil), base...)
		if cand[j] {
			cand[j] = false
		} else if avail[j] {
			cand[j] = true
		} else {
			continue
		}
		add(cand)
	}
	allOn := make([]bool, m)
	for j := range allOn {
		allOn[j] = avail[j]
	}
	add(allOn)
	return out
}
