package approx

// Equivalence and allocation pins for the dense table: it must answer
// bit-identically to the historical string-keyed implementation on any
// grid it accepts (up to the maxCells bound, past which construction
// fails), and the steady-state lookup path must not allocate.

import (
	"math"
	"math/rand"
	"testing"
)

// refTable is the pre-rework implementation: two string-keyed maps
// (sums, counts), kept as the test oracle.
type refTable struct {
	quant  *Quantizer
	sums   map[string][]float64
	counts map[string]int
	width  int
}

// cellKey is the oracle's key: the cell's indices as fixed-width
// little-endian int32s.
func cellKey(cell []int) string {
	buf := make([]byte, 0, len(cell)*4)
	for _, c := range cell {
		u := uint32(int32(c))
		buf = append(buf, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return string(buf)
}

func newRefTable(q *Quantizer, width int) *refTable {
	return &refTable{quant: q, sums: map[string][]float64{}, counts: map[string]int{}, width: width}
}

// cell returns the oracle's cell indices of x, straight from the
// quantizer's per-dimension index.
func (t *refTable) cell(x []float64) []int {
	idx := make([]int, len(x))
	for d, v := range x {
		idx[d] = t.quant.Index(d, v)
	}
	return idx
}

func (t *refTable) add(x, outputs []float64) error {
	k := cellKey(t.cell(x))
	sum, ok := t.sums[k]
	if !ok {
		sum = make([]float64, t.width)
		t.sums[k] = sum
	}
	for i, v := range outputs {
		sum[i] += v
	}
	t.counts[k]++
	return nil
}

func (t *refTable) lookup(x []float64) ([]float64, bool, error) {
	k := cellKey(t.cell(x))
	n := t.counts[k]
	if n == 0 {
		return nil, false, nil
	}
	out := make([]float64, t.width)
	for i, v := range t.sums[k] {
		out[i] = v / float64(n)
	}
	return out, true, nil
}

// randomGrid builds a random quantizer with 1-4 dimensions, occasionally
// with negative minima and fractional steps. Each dimension spans under 30
// steps, not always a whole number of them, so it has at most 31 levels
// and even a 4-dimensional grid stays within maxCells.
func randomGrid(rng *rand.Rand) *Quantizer {
	dims := 1 + rng.Intn(4)
	min := make([]float64, dims)
	max := make([]float64, dims)
	step := make([]float64, dims)
	for d := range min {
		min[d] = float64(rng.Intn(21) - 10)
		step[d] = []float64{0.25, 0.5, 1, 2.5, 5}[rng.Intn(5)]
		max[d] = min[d] + rng.Float64()*30*step[d]
	}
	q, err := NewQuantizer(min, max, step)
	if err != nil {
		panic(err)
	}
	return q
}

func randomPoint(rng *rand.Rand, q *Quantizer) []float64 {
	x := make([]float64, q.Dims())
	for d := range x {
		// Spread probes well beyond the grid so clamping is exercised.
		span := q.Max[d] - q.Min[d]
		x[d] = q.Min[d] - span/4 + rng.Float64()*span*1.5
	}
	return x
}

// TestTablePackedEquivalenceRandom drives the table and the string-keyed
// oracle through identical Add/Lookup sequences over 300 random grids and
// checks every answer bit-identically.
//
//hpm:pin search
func TestTablePackedEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		q := randomGrid(rng)
		width := 1 + rng.Intn(3)
		tab, err := NewTable(q, width)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkAgainstOracle(t, rng, tab, q, width, 40, 60)
	}
}

// checkAgainstOracle feeds tab and a fresh oracle the same adds random
// points, then checks the cell census and every probe bit-identically.
func checkAgainstOracle(t *testing.T, rng *rand.Rand, tab *Table, q *Quantizer, width, adds, probes int) {
	t.Helper()
	ref := newRefTable(q, width)
	for i := 0; i < adds; i++ {
		x := randomPoint(rng, q)
		outs := make([]float64, width)
		for j := range outs {
			outs[j] = rng.NormFloat64() * 100
		}
		if err := tab.Add(x, outs); err != nil {
			t.Fatal(err)
		}
		if err := ref.add(x, outs); err != nil {
			t.Fatal(err)
		}
	}
	if tab.Cells() != len(ref.counts) {
		t.Fatalf("cells %d vs oracle %d", tab.Cells(), len(ref.counts))
	}
	for i := 0; i < probes; i++ {
		x := randomPoint(rng, q)
		got, okG, err := tab.LookupInto(nil, x)
		if err != nil {
			t.Fatal(err)
		}
		want, okW, err := ref.lookup(x)
		if err != nil {
			t.Fatal(err)
		}
		if okG != okW {
			t.Fatalf("probe %v: hit %v vs oracle %v", x, okG, okW)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("probe %v: output %d = %v, oracle %v", x, j, got[j], want[j])
			}
		}
	}
}

// TestTableOverflowFallbackBoundary pins the maxCells boundary: the
// largest allowed grid builds and answers identically to the oracle; one
// cell more, and a grid whose cell product overflows int, are errors from
// NewTable, not panics or huge allocations.
//
//hpm:pin search
func TestTableOverflowFallbackBoundary(t *testing.T) {
	t.Run("max-cells", func(t *testing.T) {
		// 1024 × 1024 levels: exactly maxCells.
		q, err := NewQuantizer([]float64{0, -5}, []float64{1023, 506.5}, []float64{1, 0.5})
		if err != nil {
			t.Fatal(err)
		}
		tab, err := NewTable(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, rand.New(rand.NewSource(7)), tab, q, 2, 200, 200)
	})
	t.Run("one-cell-more", func(t *testing.T) {
		q, err := NewQuantizer([]float64{0}, []float64{maxCells}, []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		if tab, err := NewTable(q, 1); err == nil {
			t.Fatalf("NewTable built a %d-cell grid: %d cells", maxCells+1, len(tab.counts))
		}
	})
	t.Run("int-overflow", func(t *testing.T) {
		// Four dimensions of 2^20 levels: 2^80 cells overflows int, and
		// a dimension of 1e300 steps does not fit one.
		for _, maxIdx := range []float64{1 << 20, 1e300} {
			q, err := NewQuantizer([]float64{0, 0, 0, 0}, []float64{maxIdx - 1, maxIdx - 1, maxIdx - 1, maxIdx - 1}, []float64{1, 1, 1, 1})
			if err != nil {
				t.Fatal(err)
			}
			if tab, err := NewTable(q, 4); err == nil {
				t.Fatalf("NewTable built a grid of %v^4 cells: %d cells", maxIdx, len(tab.counts))
			}
		}
	})
}

// TestTableNaNProbeMisses: a NaN coordinate in any dimension is a miss
// (and an Add error), never an out-of-range index, even on a fully
// populated grid. (Even level counts matter: int(NaN) times an even
// stride can wrap to a valid index.)
//
//hpm:pin search
func TestTableNaNProbeMisses(t *testing.T) {
	q, err := NewQuantizer([]float64{0, 0, 0}, []float64{9, 9, 9}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	levels := [][]float64{q.Levels(0), q.Levels(1), q.Levels(2)}
	if err := Grid(levels, func(p []float64) error { return tab.Add(p, []float64{p[0]}) }); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < q.Dims(); d++ {
		x := []float64{5, 5, 5}
		x[d] = math.NaN()
		if out, ok, err := tab.LookupInto(nil, x); err != nil || ok || out != nil {
			t.Errorf("NaN in dim %d: %v %v %v, want a clean miss", d, out, ok, err)
		}
		if err := tab.Add(x, []float64{1}); err == nil {
			t.Errorf("Add with NaN in dim %d succeeded", d)
		}
	}
	if tab.Cells() != 10*10*10 {
		t.Errorf("Cells = %d, want %d", tab.Cells(), 10*10*10)
	}
}

// TestTableLookupIntoZeroAlloc pins the steady-state lookup at zero
// allocations per probe.
//
//hpm:pin search
func TestTableLookupIntoZeroAlloc(t *testing.T) {
	q, err := NewQuantizer([]float64{0, 0, 0.01}, []float64{400, 300, 0.026}, []float64{20, 15, 0.004})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable(q, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Add([]float64{100, 50, 0.018}, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 4)
	x := make([]float64, 3)
	allocs := testing.AllocsPerRun(200, func() {
		x[0], x[1], x[2] = 100, 50, 0.018
		out, ok, err := tab.LookupInto(dst, x)
		if err != nil || !ok || out[0] != 1 {
			t.Fatal("lookup failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("LookupInto allocated %v/op, want 0", allocs)
	}
	// Misses are allocation-free too.
	allocs = testing.AllocsPerRun(200, func() {
		x[0], x[1], x[2] = 0, 0, 0.01
		if _, ok, err := tab.LookupInto(dst, x); err != nil || ok {
			t.Fatal("want clean miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("LookupInto miss allocated %v/op, want 0", allocs)
	}
}
