package approx

// Equivalence and allocation pins for the packed-uint64 table: it must
// answer bit-identically to the historical string-keyed implementation on
// any grid it accepts (up to the 64-bit packing boundary, past which
// construction fails), and the steady-state lookup path must not allocate.

import (
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

func (t *refTable) add(x, outputs []float64) error {
	cellIdx, err := t.quant.Cell(x)
	if err != nil {
		return err
	}
	k := cellKey(cellIdx)
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
	cellIdx, err := t.quant.Cell(x)
	if err != nil {
		return nil, false, err
	}
	k := cellKey(cellIdx)
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
// with negative minima and fractional steps.
func randomGrid(rng *rand.Rand) *Quantizer {
	dims := 1 + rng.Intn(4)
	min := make([]float64, dims)
	max := make([]float64, dims)
	step := make([]float64, dims)
	for d := range min {
		min[d] = float64(rng.Intn(21) - 10)
		max[d] = min[d] + 1 + rng.Float64()*50
		step[d] = []float64{0.25, 0.5, 1, 2.5, 5}[rng.Intn(5)]
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

// TestTablePackedEquivalenceRandom drives the packed table and the
// string-keyed oracle through identical Add/Lookup sequences over 300
// random grids and checks every answer bit-identically.
func TestTablePackedEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		q := randomGrid(rng)
		width := 1 + rng.Intn(3)
		tab, err := NewTable(q, width)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefTable(q, width)
		for i := 0; i < 40; i++ {
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
			t.Fatalf("trial %d: cells %d vs oracle %d", trial, tab.Cells(), len(ref.counts))
		}
		for i := 0; i < 60; i++ {
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
				t.Fatalf("trial %d probe %v: hit %v vs oracle %v", trial, x, okG, okW)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("trial %d probe %v: output %d = %v, oracle %v", trial, x, j, got[j], want[j])
				}
			}
		}
	}
}

// hugeDim returns (min, max, step) for a dimension whose index range needs
// the given number of bits exactly.
func hugeDim(bits uint) (float64, float64, float64) {
	maxIdx := float64(uint64(1)<<bits - 1)
	return 0, maxIdx, 1
}

// TestTableOverflowFallbackBoundary pins the 64-bit packing boundary: a
// grid needing exactly 64 bits builds and answers identically to the
// oracle; one bit more is an error from NewTable.
func TestTableOverflowFallbackBoundary(t *testing.T) {
	// Two 31-bit dimensions plus a 2-bit one hit the 64-bit budget
	// exactly; widening the third to 3 bits crosses it. (Per-dimension
	// indices stay within int32 — the oracle's key format's own bound.)
	min31, max31, step31 := hugeDim(31)
	t.Run("exactly-64-bits", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		q, err := NewQuantizer([]float64{min31, min31, 0}, []float64{max31, max31, 3}, []float64{step31, step31, 1})
		if err != nil {
			t.Fatal(err)
		}
		tab, err := NewTable(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefTable(q, 2)
		for i := 0; i < 50; i++ {
			x := randomPoint(rng, q)
			outs := []float64{rng.NormFloat64(), rng.NormFloat64()}
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
		for i := 0; i < 80; i++ {
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
	})
	t.Run("65-bits-is-an-error", func(t *testing.T) {
		q, err := NewQuantizer([]float64{min31, min31, 0}, []float64{max31, max31, 7}, []float64{step31, step31, 1})
		if err != nil {
			t.Fatal(err)
		}
		if tab, err := NewTable(q, 2); err == nil {
			t.Fatalf("NewTable built a 65-bit grid: %+v", tab)
		}
	})
}

// TestTableLookupIntoZeroAlloc pins the steady-state lookup at zero
// allocations per probe on a packed grid.
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

// TestQuantizerCellIntoZeroAlloc pins CellInto at zero allocations when
// the destination has capacity.
func TestQuantizerCellIntoZeroAlloc(t *testing.T) {
	q, err := NewQuantizer([]float64{0, 0}, []float64{100, 100}, []float64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int, 2)
	x := []float64{12, 37}
	allocs := testing.AllocsPerRun(200, func() {
		out, err := q.CellInto(dst, x)
		if err != nil || out[0] != 2 || out[1] != 7 {
			t.Fatal("cell failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("CellInto allocated %v/op, want 0", allocs)
	}
}
