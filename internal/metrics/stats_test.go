package metrics

import (
	"math"
	"strings"
	"testing"
)

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
