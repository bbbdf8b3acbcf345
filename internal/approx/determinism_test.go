package approx

import (
	"bytes"
	"math/rand"
	"testing"
)

// fillTable populates tab with enough cells that any map-order-dependent
// iteration is near-certain to differ between two passes.
func fillTable(t *testing.T, tab *Table, dims int) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		x := make([]float64, dims)
		for d := range x {
			x[d] = rng.Float64() * 10
		}
		if err := tab.Add(x, []float64{rng.Float64(), rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTableSaveDeterministic pins the fix for a real nondeterminism bug:
// Save used to iterate the cell map directly, so identical tables
// serialized to different bytes from run to run (Go randomizes map
// iteration order). Cells are now written in sorted key order.
func TestTableSaveDeterministic(t *testing.T) {
	t.Run("packed", func(t *testing.T) {
		q, err := NewQuantizer([]float64{0, 0, 0}, []float64{10, 10, 10}, []float64{1, 1, 1})
		if err != nil {
			t.Fatal(err)
		}
		tab, err := NewTable(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		fillTable(t, tab, q.Dims())
		var a, b bytes.Buffer
		if err := tab.Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := tab.Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("two Saves of the same %d-cell table differ (%d vs %d bytes)", tab.Cells(), a.Len(), b.Len())
		}
	})
}
