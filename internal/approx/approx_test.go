package approx

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuantizerValidation(t *testing.T) {
	if _, err := NewQuantizer(nil, nil, nil); err == nil {
		t.Error("empty quantizer: want error")
	}
	if _, err := NewQuantizer([]float64{0}, []float64{1, 2}, []float64{1}); err == nil {
		t.Error("dim mismatch: want error")
	}
	if _, err := NewQuantizer([]float64{5}, []float64{1}, []float64{1}); err == nil {
		t.Error("max < min: want error")
	}
	if _, err := NewQuantizer([]float64{0}, []float64{1}, []float64{0}); err == nil {
		t.Error("zero step: want error")
	}
}

// TestAxisIndexRoundsHalfAway pins Axis.Index's floor-and-fraction form
// to the rounding every table was learned under, math.Round of the clamped
// offset in steps: over random offsets, exact halves and their float
// neighbours, and values past either end of the axis.
func TestAxisIndexRoundsHalfAway(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 200; trial++ {
		lo := 100 * rng.NormFloat64()
		step := math.Exp(4 * rng.NormFloat64())
		hi := lo + step*float64(rng.Intn(1000))
		q, err := NewQuantizer([]float64{lo}, []float64{hi}, []float64{step})
		if err != nil {
			t.Fatal(err)
		}
		a := q.Axis(0)
		for i := 0; i < 2000; i++ {
			v := lo + (hi-lo)*(1.2*rng.Float64()-0.1)
			if i%2 == 1 {
				half := lo + step*(float64(rng.Intn(1000))+0.5)
				v = math.Nextafter(half, half+float64(rng.Intn(3)-1))
			}
			want := int(math.Round((min(max(v, lo), hi) - lo) / step))
			if got := a.Index(v); got != want {
				t.Fatalf("axis [%v, %v] step %v: Index(%v) = %d, math.Round gives %d", lo, hi, step, v, got, want)
			}
		}
	}
}

func TestQuantizerLevels(t *testing.T) {
	q, err := NewQuantizer([]float64{0}, []float64{1}, []float64{0.25})
	if err != nil {
		t.Fatal(err)
	}
	levels := q.Levels(0)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(levels) != len(want) {
		t.Fatalf("Levels = %v, want %v", levels, want)
	}
	for i := range want {
		if math.Abs(levels[i]-want[i]) > 1e-9 {
			t.Errorf("Levels[%d] = %v, want %v", i, levels[i], want[i])
		}
	}
}

func TestTableAddLookup(t *testing.T) {
	q, err := NewQuantizer([]float64{0}, []float64{10}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two observations in the same cell are averaged.
	if err := tab.Add([]float64{3.1}, []float64{10, 1}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Add([]float64{2.9}, []float64{20, 3}); err != nil {
		t.Fatal(err)
	}
	got, ok, err := tab.LookupInto(nil, []float64{3.0})
	if err != nil || !ok {
		t.Fatalf("Lookup: ok=%v err=%v", ok, err)
	}
	if got[0] != 15 || got[1] != 2 {
		t.Errorf("Lookup = %v, want [15 2]", got)
	}
	// Empty cell misses.
	if _, ok, err := tab.LookupInto(nil, []float64{9}); err != nil || ok {
		t.Errorf("empty cell: ok=%v err=%v, want miss", ok, err)
	}
	if tab.Cells() != 1 {
		t.Errorf("Cells = %d, want 1", tab.Cells())
	}
	// Output width enforced.
	if err := tab.Add([]float64{1}, []float64{1}); err == nil {
		t.Error("short output: want error")
	}
}

func TestTableNegativeCells(t *testing.T) {
	q, err := NewQuantizer([]float64{-10}, []float64{10}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Add([]float64{-7}, []float64{42}); err != nil {
		t.Fatal(err)
	}
	got, ok, err := tab.LookupInto(nil, []float64{-7.2})
	if err != nil || !ok || got[0] != 42 {
		t.Errorf("Lookup = %v ok=%v err=%v, want [42] true nil", got, ok, err)
	}
}

func TestFitTreeValidation(t *testing.T) {
	if _, err := FitTree(nil, TreeConfig{}); err == nil {
		t.Error("no samples: want error")
	}
	if _, err := FitTree([]Sample{{X: nil, Y: 1}}, TreeConfig{}); err == nil {
		t.Error("zero-dim: want error")
	}
	bad := []Sample{{X: []float64{1}, Y: 1}, {X: []float64{1, 2}, Y: 2}}
	if _, err := FitTree(bad, TreeConfig{}); err == nil {
		t.Error("ragged dims: want error")
	}
}

func TestTreeRecoversPiecewiseConstant(t *testing.T) {
	// y = 1 for x < 0.5, y = 5 for x >= 0.5: one split suffices.
	var samples []Sample
	for i := 0; i < 100; i++ {
		x := float64(i) / 100
		y := 1.0
		if x >= 0.5 {
			y = 5.0
		}
		samples = append(samples, Sample{X: []float64{x}, Y: y})
	}
	tree, err := FitTree(samples, TreeConfig{MaxDepth: 3, MinLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ x, want float64 }{{0.1, 1}, {0.4, 1}, {0.6, 5}, {0.99, 5}} {
		got, err := tree.Predict([]float64{c.x})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Predict(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	rmse, err := tree.TrainingRMSE(samples)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 1e-9 {
		t.Errorf("training RMSE = %v, want ~0 for recoverable function", rmse)
	}
}

func TestTreeHandlesConstantTarget(t *testing.T) {
	samples := make([]Sample, 20)
	for i := range samples {
		samples[i] = Sample{X: []float64{float64(i)}, Y: 3}
	}
	tree, err := FitTree(samples, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Nodes() != 1 {
		t.Errorf("constant target grew %d nodes, want 1", tree.Nodes())
	}
	got, err := tree.Predict([]float64{100})
	if err != nil || got != 3 {
		t.Errorf("Predict = %v/%v, want 3", got, err)
	}
}

func TestTreePredictionWithinTrainingRange(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(n uint8) bool {
		count := int(n%100) + 20
		samples := make([]Sample, count)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range samples {
			y := rng.NormFloat64() * 10
			lo = math.Min(lo, y)
			hi = math.Max(hi, y)
			samples[i] = Sample{X: []float64{rng.Float64() * 5, rng.Float64() * 5}, Y: y}
		}
		tree, err := FitTree(samples, TreeConfig{MaxDepth: 6, MinLeaf: 2})
		if err != nil {
			return false
		}
		for i := 0; i < 50; i++ {
			p, err := tree.Predict([]float64{rng.Float64() * 8, rng.Float64() * 8})
			if err != nil || p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTreeMinLeafRespected(t *testing.T) {
	var samples []Sample
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 64; i++ {
		samples = append(samples, Sample{X: []float64{float64(i)}, Y: rng.Float64() * 100})
	}
	tree, err := FitTree(samples, TreeConfig{MaxDepth: 20, MinLeaf: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tree.nodes {
		if n.left < 0 && n.count < 8 {
			t.Errorf("leaf with %d samples, want >= 8", n.count)
		}
	}
}

func TestDeeperTreeFitsBetter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var samples []Sample
	for i := 0; i < 400; i++ {
		x := rng.Float64() * 10
		samples = append(samples, Sample{X: []float64{x}, Y: math.Sin(x) + rng.NormFloat64()*0.05})
	}
	shallow, err := FitTree(samples, TreeConfig{MaxDepth: 2, MinLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	deep, err := FitTree(samples, TreeConfig{MaxDepth: 8, MinLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := shallow.TrainingRMSE(samples)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := deep.TrainingRMSE(samples)
	if err != nil {
		t.Fatal(err)
	}
	if rd >= rs {
		t.Errorf("deep RMSE %v not better than shallow %v", rd, rs)
	}
	if deep.Depth() <= shallow.Depth() {
		t.Errorf("deep depth %d <= shallow %d", deep.Depth(), shallow.Depth())
	}
	if deep.Leaves() <= shallow.Leaves() {
		t.Errorf("deep leaves %d <= shallow %d", deep.Leaves(), shallow.Leaves())
	}
}

func TestTreePredictDimsChecked(t *testing.T) {
	tree, err := FitTree([]Sample{{X: []float64{1}, Y: 1}, {X: []float64{2}, Y: 2}}, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Predict([]float64{1, 2}); err == nil {
		t.Error("wrong dims: want error")
	}
}

func TestGridEnumeratesCartesianProduct(t *testing.T) {
	levels := [][]float64{{0, 1}, {10, 20, 30}}
	var got [][]float64
	err := Grid(levels, func(p []float64) error {
		cp := make([]float64, len(p))
		copy(cp, p)
		got = append(got, cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("visited %d points, want 6", len(got))
	}
	if GridSize(levels) != 6 {
		t.Errorf("GridSize = %d, want 6", GridSize(levels))
	}
	if got[0][0] != 0 || got[0][1] != 10 || got[5][0] != 1 || got[5][1] != 30 {
		t.Errorf("grid order unexpected: %v", got)
	}
}

func TestGridErrors(t *testing.T) {
	if err := Grid(nil, func([]float64) error { return nil }); err == nil {
		t.Error("empty grid: want error")
	}
	if err := Grid([][]float64{{}}, func([]float64) error { return nil }); err == nil {
		t.Error("empty dimension: want error")
	}
	boom := fmt.Errorf("boom")
	err := Grid([][]float64{{1, 2}}, func([]float64) error { return boom })
	if err != boom {
		t.Errorf("visit error not propagated: %v", err)
	}
	if GridSize(nil) != 0 {
		t.Error("GridSize(nil) != 0")
	}
}

func TestLearnBuildsSamples(t *testing.T) {
	levels := [][]float64{{1, 2}, {3, 4}}
	samples, err := Learn(levels, func(p []float64) (float64, error) {
		return p[0] * p[1], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("got %d samples, want 4", len(samples))
	}
	for _, s := range samples {
		if s.Y != s.X[0]*s.X[1] {
			t.Errorf("sample %v: Y != X0*X1", s)
		}
	}
	// Samples own their X (the grid buffer is reused).
	if &samples[0].X[0] == &samples[1].X[0] {
		t.Error("samples share feature storage")
	}
	if _, err := Learn(levels, func(p []float64) (float64, error) {
		return 0, fmt.Errorf("sim failed")
	}); err == nil {
		t.Error("f error not propagated")
	}
}
