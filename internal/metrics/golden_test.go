package metrics

import (
	"math"
	"os"
	"testing"
)

// goldenRegistry builds a registry that reaches every branch of the
// renderer: integral, fractional, tiny, huge and non-finite values;
// backslashes, quotes and newlines in help texts and label values; a
// family with no series; multi-label counters (rendered out of insertion
// order); and histograms with and without labels, whose le values cover
// the same number shapes.
func goldenRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	g := mustGauge(t, r, "golden_values", "Gauge values of every shape.", "shape")
	for _, c := range []struct {
		shape string
		v     float64
	}{
		{"zero", 0},
		{"neg_zero", math.Copysign(0, -1)},
		{"int", 42},
		{"big_int", 1 << 53},
		{"neg", -7},
		{"frac", 0.1},
		{"third", 1.0 / 3},
		{"tiny", 1e-9},
		{"huge", 1e21},
		{"below_huge", 1e20},
		{"max", math.MaxFloat64},
		{"smallest", math.SmallestNonzeroFloat64},
		{"pos_inf", math.Inf(1)},
		{"neg_inf", math.Inf(-1)},
		{"nan", math.NaN()},
	} {
		g.With(c.shape).Set(c.v)
	}
	mustGauge(t, r, "golden_unlabelled", "A single series.").With().Set(12.5)
	mustCounter(t, r, "golden_empty_total", "A family with no series yet.")
	mustGauge(t, r, "golden_escaped", "Help with a \\ backslash,\na newline and \"quotes\".", "value")
	esc := mustGauge(t, r, "golden_escaped_values", "Label values needing escapes.", "value")
	for i, v := range []string{`back\slash`, `quo"te`, "new\nline", "", "plain", "ünïcødé", `\"` + "\n"} {
		esc.With(v).Set(float64(i))
	}
	c := mustCounter(t, r, "golden_requests_total", "Requests by tenant and code.", "tenant", "code")
	c.With("b", "500").Add(3)
	c.With("a", "200").Add(1234567)
	c.With("a", "500").Inc()
	c.With("a b", "200").SetTotal(99.5)
	c.With("", "404").Inc()
	h := mustHistogram(t, r, "golden_latency_seconds", "Latency by level.",
		[]float64{1e-9, 1e-4, 0.1, 1, 30, 1e21}, "level", "kind")
	h.With("l1", "x").SetBuckets([]uint64{0, 2, 5, 0, 300, 1}, 1<<40, 123.456)
	h.With("l0", "y").Observe(0.05)
	h.With("l0", "y").Observe(2)
	h.With("l0", "y").Observe(1e22)
	h.With("l0", "x").Observe(math.Inf(1))
	hu := mustHistogram(t, r, "golden_size", "Unlabelled histogram.", []float64{1, 10, 100})
	hu.With().SetBuckets([]uint64{1, 2, 3}, 7, math.NaN())
	mustHistogram(t, r, "golden_quiet", "A histogram with no series.", []float64{0.5})
	return r
}

// TestRegistryWriteTextGolden pins the renderer's bytes: goldenRegistry
// renders exactly testdata/writetext.golden, which the fmt-based renderer
// this one replaced wrote. A new case goes in a test of its own, so the
// file stays that renderer's output.
func TestRegistryWriteTextGolden(t *testing.T) {
	got := render(t, goldenRegistry(t))
	want, err := os.ReadFile("testdata/writetext.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("WriteText differs from the golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
