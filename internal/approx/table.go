// Package approx implements the paper's function-approximation substrate
// (§3, §4.2, §5.1): higher-level controllers cannot afford detailed models
// of the closed-loop components below them, so they consult learned
// abstractions instead —
//
//   - Table: the quantized lookup-table abstraction map g used by the L1
//     controller to predict per-computer cost and behaviour, "obtained
//     off-line by simulating the L0 controller" (§4.2);
//   - RegressionTree: the compact CART regression tree the L2 controller
//     uses to approximate module cost J̃, "trained from a large lookup
//     table" produced by simulation-based learning (§5.1);
//   - Grid / Learn: the simulation-based learning harness that sweeps the
//     quantized input domains and produces training samples.
//
// Invariant: the steady-state lookup path is allocation-free. Table is a
// dense row-major grid sized once by NewTable, so Add and Lookup cost one
// index computation and no hash probe, and Table.LookupInto writes into
// caller-owned scratch — TestTableLookupIntoZeroAlloc pins it at 0
// allocs/op. NewTable rejects a grid of more than maxCells cells, and a
// NaN coordinate is a miss, never an out-of-range index.
package approx

import (
	"fmt"
	"math"
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

// Index returns the grid index of v along dimension d (clamped into
// range).
func (q *Quantizer) Index(d int, v float64) int { return q.Axis(d).Index(v) }

// Axis is one dimension of a Quantizer, for callers that index many values
// along it: Axis(d).Index(v) is Index(d, v), and inlines.
type Axis struct{ min, max, step float64 }

// Axis returns dimension d.
func (q *Quantizer) Axis(d int) Axis { return Axis{q.Min[d], q.Max[d], q.Step[d]} }

// Index returns the grid index of v along the axis (clamped into range),
// the clamped offset in steps rounded half away from zero. Every keying
// path funnels through this one expression. The offset is never negative,
// so math.Round is its floor plus one when the (exact) fraction is at
// least a half — the form that inlines.
func (a Axis) Index(v float64) int {
	x := (max(a.min, min(v, a.max)) - a.min) / a.step
	f := math.Floor(x)
	if x-f >= 0.5 {
		f++
	}
	return int(f)
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

// maxCells bounds a table's grid. Learning fills every cell by simulating
// L0 over it (GMapConfig.SubSteps decisions, 70-95 µs a cell under the
// default L0 on a 2-vCPU x86 box), so a million cells is over a minute of
// learning per computer shape and 40 MB of sums and counts at g's width;
// the default g has 2,205.
const maxCells = 1 << 20

// Table is the quantized abstraction map g: a table from quantized
// (state, environment, control) tuples to learned outputs — the paper
// stores the approximate cost and aggregate behaviour of a computer under
// its L0 controller. Multiple observations falling in one cell are
// averaged. Construct with NewTable.
//
// The grid is dense and row-major, the last dimension fastest: cell i
// keeps its output sums at sums[i*width:] and its observation count at
// counts[i], and a cell with a zero count is unobserved.
type Table struct {
	quant  *Quantizer
	width  int
	size   []int // levels per dimension: index(d, Max[d])+1
	sums   []float64
	counts []int
	cells  int // observed cells
}

// NewTable builds an empty table over the quantizer's grid with the given
// output width (number of learned values per cell, ≥ 1). The grid may
// hold at most maxCells cells.
func NewTable(quant *Quantizer, outputWidth int) (*Table, error) {
	if quant == nil {
		return nil, fmt.Errorf("approx: nil quantizer")
	}
	if outputWidth < 1 {
		return nil, fmt.Errorf("approx: output width %d < 1", outputWidth)
	}
	size := make([]int, quant.Dims())
	cells := 1
	for d := range size {
		// index(d, Max[d])+1, kept a float until it is known to fit, so
		// neither a huge index nor the running product can overflow int.
		levels := math.Round((quant.Max[d]-quant.Min[d])/quant.Step[d]) + 1
		if !(levels <= float64(maxCells/cells)) {
			return nil, fmt.Errorf("approx: grid has more than %d cells (dimension %d has %v levels)", maxCells, d, levels)
		}
		size[d] = int(levels)
		cells *= size[d]
	}
	return &Table{
		quant: quant, width: outputWidth, size: size,
		sums: make([]float64, cells*outputWidth), counts: make([]int, cells),
	}, nil
}

// cellOf returns the row-major index of the cell containing x, or -1 when
// a coordinate is NaN.
func (t *Table) cellOf(x []float64) (int, error) {
	if len(x) != t.quant.Dims() {
		return 0, fmt.Errorf("approx: point has %d dims, quantizer has %d", len(x), t.quant.Dims())
	}
	i := 0
	for d, v := range x {
		if math.IsNaN(v) {
			return -1, nil
		}
		i = i*t.size[d] + t.quant.Index(d, v)
	}
	return i, nil
}

// Add folds an observation into the cell containing x.
func (t *Table) Add(x []float64, outputs []float64) error {
	if len(outputs) != t.width {
		return fmt.Errorf("approx: %d outputs, table width %d", len(outputs), t.width)
	}
	i, err := t.cellOf(x)
	if err != nil {
		return err
	}
	if i < 0 {
		return fmt.Errorf("approx: NaN coordinate in %v", x)
	}
	if t.counts[i] == 0 {
		t.cells++
	}
	t.counts[i]++
	sum := t.sums[i*t.width : (i+1)*t.width]
	for j, v := range outputs {
		sum[j] += v
	}
	return nil
}

// LookupInto returns the cell average for the cell containing x, and
// whether the cell has any observations, writing the averages into dst:
// when cap(dst) ≥ the table's output width the returned slice aliases dst
// and a hit performs no allocation (pinned by TestTableLookupIntoZeroAlloc).
// On a miss — an unobserved cell or a NaN coordinate — dst is left
// untouched and the returned slice is nil.
//
//hpm:hotpath
func (t *Table) LookupInto(dst []float64, x []float64) ([]float64, bool, error) {
	i, err := t.cellOf(x)
	if err != nil || i < 0 {
		return nil, false, err
	}
	dst, ok := t.LookupCell(dst, i)
	return dst, ok, nil
}

// LookupCell is LookupInto for the cell with row-major index i — the
// Quantizer's per-dimension indices, last dimension fastest, over
// Levels — for callers that key their own memo by cell.
//
//hpm:hotpath
func (t *Table) LookupCell(dst []float64, i int) ([]float64, bool) {
	if t.counts[i] == 0 {
		return nil, false
	}
	if cap(dst) < t.width {
		dst = make([]float64, t.width) //hpm:alloc fallback when caller scratch is too small; the *Into contract
	}
	dst = dst[:t.width]
	// Per-output division (not multiply-by-reciprocal): cell averages must
	// stay bit-identical to the historical implementation.
	n := float64(t.counts[i])
	for j, v := range t.sums[i*t.width : (i+1)*t.width] {
		dst[j] = v / n
	}
	return dst, true
}

// Quantizer returns the table's grid.
func (t *Table) Quantizer() *Quantizer { return t.quant }

// Levels returns the number of grid levels along dimension d.
func (t *Table) Levels(d int) int { return t.size[d] }

// Cells returns the number of observed cells.
func (t *Table) Cells() int { return t.cells }
