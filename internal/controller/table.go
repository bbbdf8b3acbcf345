package controller

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// candidateSet is one mask's entry in a CandidateTable: the candidate
// vectors and their packed dedup keys (flat, L1.gammaWords per candidate).
// Never mutated once published.
type candidateSet struct {
	cands [][]float64
	keys  []uint64
}

// maxGammaMemoFloats bounds one CandidateTable by the float64s its stored
// candidate vectors hold: 1 Mi floats = 8 MiB, about 10.5 MB with the
// per-vector slice headers and dedup keys. Entry size grows steeply with
// the module size — a 4-computer mask stores a few hundred floats, a
// 16-computer one 13,321 vectors ≈ 213k floats ≈ 2.2 MB — so a bound on
// entries would let one large shape under rotating masks pin hundreds of
// megabytes. Every benchmarked shape's working set of masks fits well
// inside the bound.
const maxGammaMemoFloats = 1 << 20

// CandidateTable maps an L1 on/off mask to that mask's capacity-seeded γ
// neighbourhood, for one shape (a pure function of its capacity weights,
// quantum and neighbour depth — see L1TableKey). Every L1 of the shape may
// share one table, from any goroutine: a read takes no lock — it loads an
// atomic pointer to an immutable map — and a miss publishes under a mutex
// by copying the map, so an entry is never mutated once published. The table
// is bounded at maxGammaMemoFloats; past the bound a miss computes without
// storing, which changes how much is allocated and never a decision.
type CandidateTable struct {
	key  string
	sets atomic.Pointer[map[uint64]*candidateSet]

	mu     sync.Mutex
	floats int // float64s held by published candidate vectors; guarded by mu
}

// NewCandidateTable returns an empty table for the shape key names
// (L1TableKey); a controller refuses a table of another shape.
func NewCandidateTable(key string) *CandidateTable {
	t := &CandidateTable{key: key}
	t.sets.Store(&map[uint64]*candidateSet{})
	return t
}

// Key returns the shape key the table was created for.
func (t *CandidateTable) Key() string { return t.key }

// Len returns the number of masks the table holds.
func (t *CandidateTable) Len() int { return len(*t.sets.Load()) }

// lookup returns mask's published set, or nil.
func (t *CandidateTable) lookup(mask uint64) *candidateSet {
	return (*t.sets.Load())[mask]
}

// publish offers set as mask's entry and returns the entry to use: the one
// already published when another controller got there first (the same
// content — the set is a pure function of the shape and the mask), set
// itself otherwise, stored only while the table stays within
// maxGammaMemoFloats.
func (t *CandidateTable) publish(mask uint64, set *candidateSet) *candidateSet {
	n := 0
	for _, c := range set.cands {
		n += len(c)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := *t.sets.Load()
	if e := old[mask]; e != nil {
		return e
	}
	if t.floats+n > maxGammaMemoFloats {
		return set
	}
	next := make(map[uint64]*candidateSet, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[mask] = set
	t.sets.Store(&next)
	t.floats += n
	return set
}

// L1TableKey names the shape an L1's candidate table depends on: the exact
// bits of the capacity weights (the computers' speed factors, in module
// order), the quantum and the neighbour depth.
func L1TableKey(cfg L1Config, gmaps []*GMap) string {
	var b strings.Builder
	fmt.Fprintf(&b, "l1|q%x|d%d|c", math.Float64bits(cfg.Quantum), cfg.NeighbourDepth)
	for _, g := range gmaps {
		fmt.Fprintf(&b, ",%x", math.Float64bits(g.Spec().SpeedFactor))
	}
	return b.String()
}

// tableFor returns table, or a private one for the shape when it is nil,
// and refuses a table created for another shape.
func tableFor(table *CandidateTable, key string) (*CandidateTable, error) {
	if table == nil {
		return NewCandidateTable(key), nil
	}
	if table.key != key {
		return nil, fmt.Errorf("controller: candidate table for %q given to a controller of shape %q", table.key, key)
	}
	return table, nil
}
