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

// TestTableSamplesDeterministic pins the companion fix: Samples feeds the
// regression-tree fitter, whose tie-breaking is input-order-sensitive, so
// the export must not follow map order either.
func TestTableSamplesDeterministic(t *testing.T) {
	q, err := NewQuantizer([]float64{0, 0, 0}, []float64{10, 10, 10}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	fillTable(t, tab, q.Dims())
	first, err := tab.Samples(1)
	if err != nil {
		t.Fatal(err)
	}
	second, err := tab.Samples(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("sample counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i].Y != second[i].Y {
			t.Fatalf("sample %d differs across exports: %v vs %v", i, first[i], second[i])
		}
		for d := range first[i].X {
			if first[i].X[d] != second[i].X[d] {
				t.Fatalf("sample %d centroid differs across exports", i)
			}
		}
	}
}
