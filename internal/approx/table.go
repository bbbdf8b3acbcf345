// Package approx implements the paper's function-approximation substrate
// (§3, §4.2, §5.1): higher-level controllers cannot afford detailed models
// of the closed-loop components below them, so they consult learned
// abstractions instead —
//
//   - Table: the quantized hash-table abstraction map g used by the L1
//     controller to predict per-computer cost and behaviour, "obtained
//     off-line by simulating the L0 controller" (§4.2);
//   - RegressionTree: the compact CART regression tree the L2 controller
//     uses to approximate module cost J̃, "trained from a large lookup
//     table" produced by simulation-based learning (§5.1);
//   - Grid / Learn: the simulation-based learning harness that sweeps the
//     quantized input domains and produces training samples.
//
// Invariant: the steady-state lookup path is allocation-free. Table keys
// cells by a single packed uint64 of quantized indices (one hash probe per
// Add/Lookup), and the *Into APIs (Quantizer.CellInto, Table.LookupInto)
// write into caller-owned scratch — TestTableLookupIntoZeroAlloc and
// TestQuantizerCellIntoZeroAlloc pin both at 0 allocs/op. A grid whose
// index ranges need more than 64 packed bits is rejected by NewTable: it
// has more than 2^64 cells, and Learn sweeps every cell.
package approx

import (
	"fmt"
	"math"
	"math/bits"
)

// Quantizer maps continuous feature vectors onto a regular grid so they can
// key a lookup table. Each dimension d is clamped to [Min[d], Max[d]] and
// snapped to multiples of Step[d].
type Quantizer struct {
	Min, Max, Step []float64
}

// NewQuantizer validates and returns a quantizer. All three slices must
// have the same length, with Min ≤ Max and Step > 0 per dimension.
func NewQuantizer(min, max, step []float64) (*Quantizer, error) {
	if len(min) == 0 || len(min) != len(max) || len(min) != len(step) {
		return nil, fmt.Errorf("approx: quantizer dims %d/%d/%d mismatch or empty", len(min), len(max), len(step))
	}
	for d := range min {
		if max[d] < min[d] {
			return nil, fmt.Errorf("approx: dim %d max %v < min %v", d, max[d], min[d])
		}
		if step[d] <= 0 {
			return nil, fmt.Errorf("approx: dim %d step %v <= 0", d, step[d])
		}
	}
	return &Quantizer{Min: min, Max: max, Step: step}, nil
}

// Dims returns the number of feature dimensions.
func (q *Quantizer) Dims() int { return len(q.Min) }

// index returns the grid index of v along dimension d (clamped into
// range). Every keying path funnels through this one expression.
func (q *Quantizer) index(d int, v float64) int {
	if v < q.Min[d] {
		v = q.Min[d]
	}
	if v > q.Max[d] {
		v = q.Max[d]
	}
	return int(math.Round((v - q.Min[d]) / q.Step[d]))
}

// maxIndex returns the largest index reachable along dimension d (the
// index of v = Max[d]).
func (q *Quantizer) maxIndex(d int) int { return q.index(d, q.Max[d]) }

// Cell returns the grid indices of x (clamped into range).
func (q *Quantizer) Cell(x []float64) ([]int, error) {
	return q.CellInto(nil, x)
}

// CellInto is Cell writing into dst: when cap(dst) ≥ Dims() the returned
// slice aliases dst and the call performs no allocation (pinned by
// TestQuantizerCellIntoZeroAlloc); otherwise a fresh slice is allocated.
//
//hpm:hotpath
func (q *Quantizer) CellInto(dst []int, x []float64) ([]int, error) {
	if len(x) != q.Dims() {
		return nil, fmt.Errorf("approx: point has %d dims, quantizer has %d", len(x), q.Dims())
	}
	if cap(dst) < len(x) {
		dst = make([]int, len(x)) //hpm:alloc fallback when caller scratch is too small; the *Into contract
	}
	dst = dst[:len(x)]
	for d, v := range x {
		dst[d] = q.index(d, v)
	}
	return dst, nil
}

// Levels returns the grid values of dimension d from Min to Max inclusive,
// the sweep set used by the learning harness.
func (q *Quantizer) Levels(d int) []float64 {
	var out []float64
	for v := q.Min[d]; v <= q.Max[d]+1e-9; v += q.Step[d] {
		out = append(out, math.Min(v, q.Max[d]))
	}
	return out
}

// cell is one populated table entry: running output sums and the
// observation count, held behind a single map probe.
type cell struct {
	sum []float64
	n   int
}

// Table is the quantized abstraction map g: a hash table from quantized
// (state, environment, control) tuples to learned outputs — the paper
// stores the approximate cost and aggregate behaviour of a computer under
// its L0 controller. Multiple observations falling in one cell are
// averaged. Construct with NewTable.
//
// Cells are keyed by a single packed uint64 of the quantized indices
// (nbits[d] bits per dimension), so Add and Lookup cost one hash probe
// and build no intermediate slice or string.
type Table struct {
	quant *Quantizer
	width int

	// shift[d]/nbits[d] place dimension d's index inside the uint64 key.
	shift []uint
	nbits []uint
	cells map[uint64]*cell
}

// NewTable builds an empty table over the quantizer's grid with the given
// output width (number of learned values per cell, ≥ 1). The grid must
// pack: Σ_d bits(maxIndex[d]) ≤ 64.
func NewTable(quant *Quantizer, outputWidth int) (*Table, error) {
	if quant == nil {
		return nil, fmt.Errorf("approx: nil quantizer")
	}
	if outputWidth < 1 {
		return nil, fmt.Errorf("approx: output width %d < 1", outputWidth)
	}
	t := &Table{
		quant: quant, width: outputWidth,
		shift: make([]uint, quant.Dims()), nbits: make([]uint, quant.Dims()),
		cells: make(map[uint64]*cell),
	}
	at := uint(0)
	for d := range t.nbits {
		b := uint(bits.Len(uint(quant.maxIndex(d))))
		if b == 0 {
			b = 1 // single-level dimension still owns one bit
		}
		t.shift[d], t.nbits[d] = at, b
		at += b
	}
	if at > 64 {
		return nil, fmt.Errorf("approx: grid needs %d index bits, a table packs at most 64", at)
	}
	return t, nil
}

// packKey computes the packed cell key of x without materializing the
// index slice.
func (t *Table) packKey(x []float64) uint64 {
	k := uint64(0)
	for d, v := range x {
		k |= uint64(t.quant.index(d, v)) << t.shift[d]
	}
	return k
}

// lookupCell returns the populated cell containing x, or nil, without
// allocating.
func (t *Table) lookupCell(x []float64) (*cell, error) {
	if len(x) != t.quant.Dims() {
		return nil, fmt.Errorf("approx: point has %d dims, quantizer has %d", len(x), t.quant.Dims())
	}
	return t.cells[t.packKey(x)], nil
}

// Add folds an observation into the cell containing x.
func (t *Table) Add(x []float64, outputs []float64) error {
	if len(outputs) != t.width {
		return fmt.Errorf("approx: %d outputs, table width %d", len(outputs), t.width)
	}
	c, err := t.lookupCell(x)
	if err != nil {
		return err
	}
	if c == nil {
		c = &cell{sum: make([]float64, t.width)}
		t.cells[t.packKey(x)] = c
	}
	for i, v := range outputs {
		c.sum[i] += v
	}
	c.n++
	return nil
}

// LookupInto returns the cell average for the cell containing x, and
// whether the cell has any observations, writing the averages into dst:
// when cap(dst) ≥ the table's output width the returned slice aliases dst
// and a hit performs no allocation — one hash probe, no intermediate cell
// slice or key string (pinned by TestTableLookupIntoZeroAlloc). On a miss
// dst is left untouched and the returned slice is nil.
//
//hpm:hotpath
func (t *Table) LookupInto(dst []float64, x []float64) ([]float64, bool, error) {
	c, err := t.lookupCell(x)
	if err != nil {
		return nil, false, err
	}
	if c == nil {
		return nil, false, nil
	}
	if cap(dst) < t.width {
		dst = make([]float64, t.width) //hpm:alloc fallback when caller scratch is too small; the *Into contract
	}
	dst = dst[:t.width]
	// Per-output division (not multiply-by-reciprocal): cell averages must
	// stay bit-identical to the historical implementation.
	n := float64(c.n)
	for i, v := range c.sum {
		dst[i] = v / n
	}
	return dst, true, nil
}

// Width returns the number of learned values per cell.
func (t *Table) Width() int { return t.width }

// Cells returns the number of populated cells.
func (t *Table) Cells() int { return len(t.cells) }
