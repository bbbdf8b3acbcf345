package approx

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestTreeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var samples []Sample
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 5}
		samples = append(samples, Sample{X: x, Y: x[0]*2 + x[1]})
	}
	tree, err := FitTree(samples, TreeConfig{MaxDepth: 8, MinLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadTree(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Nodes() != tree.Nodes() || loaded.Depth() != tree.Depth() {
		t.Errorf("shape changed: %d/%d nodes, %d/%d depth",
			loaded.Nodes(), tree.Nodes(), loaded.Depth(), tree.Depth())
	}
	for i := 0; i < 100; i++ {
		x := []float64{rng.Float64() * 12, rng.Float64() * 6}
		a, err := tree.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("prediction diverged at %v: %v vs %v", x, a, b)
		}
	}
}

func TestTableRoundTrip(t *testing.T) {
	q, err := NewQuantizer([]float64{0, 0}, []float64{10, 10}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Add([]float64{3, 4}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Add([]float64{3, 4}, []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Add([]float64{7, 8}, []float64{5, 6}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cells() != tab.Cells() {
		t.Fatalf("cells = %d, want %d", loaded.Cells(), tab.Cells())
	}
	for _, probe := range [][]float64{{3, 4}, {7, 8}} {
		a, okA, err := tab.LookupInto(nil, probe)
		if err != nil || !okA {
			t.Fatal(err)
		}
		b, okB, err := loaded.LookupInto(nil, probe)
		if err != nil || !okB {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("lookup %v diverged: %v vs %v", probe, a, b)
			}
		}
	}
	// Unpopulated cells still miss.
	if _, ok, err := loaded.LookupInto(nil, []float64{0, 0}); err != nil || ok {
		t.Error("empty cell should miss after round trip")
	}
}

func TestReadGarbage(t *testing.T) {
	if _, err := ReadTree(strings.NewReader("not a gob stream")); err == nil {
		t.Error("garbage tree: want error")
	}
	if _, err := ReadTable(strings.NewReader("not a gob stream")); err == nil {
		t.Error("garbage table: want error")
	}
}
