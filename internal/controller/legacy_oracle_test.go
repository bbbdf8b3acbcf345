package controller

// The historical allocating, string-keyed on/off candidate generator,
// kept as the reference the L1's packed on/off masks are compared against.
// Nothing here shares code with the packed masks: vectors are deduplicated
// by a byte string of their states.

func alphaKey(a []bool) string {
	buf := make([]byte, len(a))
	for i, v := range a {
		if v {
			buf[i] = 1
		}
	}
	return string(buf)
}

// alphaCandidatesLegacy is the historical on/off candidate generator, from
// the on/off vector on in force.
func alphaCandidatesLegacy(l *L1, on, avail []bool) [][]bool {
	m := l.Size()
	minOn := l.cfg.MinOn
	if a := countOn(avail); a < minOn {
		minOn = a
	}
	base := make([]bool, m)
	for j := range base {
		base[j] = on[j] && avail[j]
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
