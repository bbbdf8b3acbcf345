package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Errorf("Count = %d, want 8", w.Count())
	}
	if got := w.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", got)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Count() != 0 {
		t.Error("empty Welford stats should be 0")
	}
	w.Add(3)
	if w.Mean() != 3 {
		t.Errorf("Mean = %v, want 3", w.Mean())
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(na, nb uint8) bool {
		a := make([]float64, na%64)
		b := make([]float64, nb%64)
		for i := range a {
			a[i] = rng.NormFloat64() * 100
		}
		for i := range b {
			b[i] = rng.NormFloat64() * 100
		}
		var wa, wb, all Welford
		for _, x := range a {
			wa.Add(x)
			all.Add(x)
		}
		for _, x := range b {
			wb.Add(x)
			all.Add(x)
		}
		wa.Merge(&wb)
		if wa.Count() != all.Count() {
			return false
		}
		if all.Count() == 0 {
			return true
		}
		scale := 1 + math.Abs(all.Mean())
		return math.Abs(wa.Mean()-all.Mean()) < 1e-9*scale
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMAE(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, 4, 3}
	mae, err := MAE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2.0 / 3.0; math.Abs(mae-want) > 1e-12 {
		t.Errorf("MAE = %v, want %v", mae, want)
	}
	if _, err := MAE(a, b[:2]); err == nil {
		t.Error("MAE length mismatch: want error")
	}
	if zero, _ := MAE(nil, nil); zero != 0 {
		t.Error("empty MAE should be 0")
	}
}

func TestTimeWeightedIntegral(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(0, 2)                       // 2 from t=0
	tw.Observe(5, 4)                       // contributes 2*5=10
	tw.Observe(10, 0)                      // contributes 4*5=20
	if got := tw.FinishAt(20); got != 30 { // 0 over [10,20]
		t.Errorf("integral = %v, want 30", got)
	}
	if got := tw.Mean(0); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("Mean = %v, want 1.5", got)
	}
}

func TestTimeWeightedEdge(t *testing.T) {
	var tw TimeWeighted
	if tw.Mean(0) != 0 {
		t.Error("no observations: Mean should be 0")
	}
	tw.Observe(5, 10)
	if tw.Total() != 0 {
		t.Error("single observation should contribute nothing yet")
	}
	tw.Observe(5, 20) // same timestamp: no accumulation
	if tw.Total() != 0 {
		t.Errorf("same-time observation accumulated %v, want 0", tw.Total())
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("name", "value", "unit")
	tab.AddRow("alpha", 3.14159, "s")
	tab.AddRow("beta-long-name", 42, "")
	out := tab.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta-long-name") {
		t.Errorf("table missing rows:\n%s", out)
	}
	if !strings.Contains(out, "3.142") {
		t.Errorf("float not compactly formatted:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d, want 2", tab.Len())
	}
}

func TestTableRowPadding(t *testing.T) {
	tab := NewTable("a", "b")
	tab.AddRow("only")           // short row padded
	tab.AddRow("x", "y", "drop") // long row truncated
	out := tab.String()
	if strings.Contains(out, "drop") {
		t.Errorf("extra cell not truncated:\n%s", out)
	}
}
