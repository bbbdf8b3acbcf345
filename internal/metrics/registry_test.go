package metrics

import (
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

func mustCounter(t *testing.T, r *Registry, name, help string, labels ...string) *CounterVec {
	t.Helper()
	c, err := r.Counter(name, help, labels...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustGauge(t *testing.T, r *Registry, name, help string, labels ...string) *GaugeVec {
	t.Helper()
	g, err := r.Gauge(name, help, labels...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustHistogram(t *testing.T, r *Registry, name, help string, bounds []float64, labels ...string) *HistogramVec {
	t.Helper()
	h, err := r.Histogram(name, help, bounds, labels...)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestRegistryValidation(t *testing.T) {
	r := NewRegistry()
	cases := []func() error{
		func() error { _, err := r.Counter("0bad", "help"); return err },
		func() error { _, err := r.Counter("ok_name", ""); return err },
		func() error { _, err := r.Counter("ok_name2", "h", "0bad"); return err },
		func() error { _, err := r.Counter("ok_name3", "h", "__reserved"); return err },
		func() error { _, err := r.Counter("ok_name4", "h", "a", "a"); return err },
		func() error { _, err := r.Histogram("h1", "h", nil); return err },
		func() error { _, err := r.Histogram("h2", "h", []float64{1, 1}); return err },
		func() error { _, err := r.Histogram("h3", "h", []float64{1, math.Inf(1)}); return err },
		func() error { _, err := r.Histogram("h4", "h", []float64{1}, "le"); return err },
	}
	for i, fn := range cases {
		if fn() == nil {
			t.Errorf("case %d: invalid registration accepted", i)
		}
	}
	if _, err := r.Counter("dup", "h"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Gauge("dup", "h"); err == nil {
		t.Error("duplicate family name accepted")
	}
	// Histogram suffixes are reserved names too.
	if _, err := r.Histogram("lat", "h", []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Counter("lat_bucket", "h"); err == nil {
		t.Error("histogram suffix collision accepted")
	}
}

func TestRegistryWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	up := mustGauge(t, r, "up_seconds", `uptime with \ backslash and
newline`)
	up.With().Set(12.5)
	reqs := mustCounter(t, r, "reqs_total", "requests", "tenant", "code")
	reqs.With("a", "200").Add(3)
	reqs.With("a", "500").Inc()
	reqs.With(`we"ird\`+"\n", "200").Inc()
	lat := mustHistogram(t, r, "lat_seconds", "latency", []float64{0.1, 1}, "tenant")
	lat.With("a").Observe(0.05)
	lat.With("a").Observe(0.5)
	lat.With("a").Observe(99) // above last bound: only +Inf
	empty := mustCounter(t, r, "quiet_total", "no series yet")
	_ = empty

	out := render(t, r)
	for _, want := range []string{
		`# HELP up_seconds uptime with \\ backslash and\nnewline`,
		"# TYPE up_seconds gauge",
		"up_seconds 12.5",
		"# TYPE reqs_total counter",
		`reqs_total{tenant="a",code="200"} 3`,
		`reqs_total{tenant="a",code="500"} 1`,
		`reqs_total{tenant="we\"ird\\\n",code="200"} 1`,
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{tenant="a",le="0.1"} 1`,
		`lat_seconds_bucket{tenant="a",le="1"} 2`,
		`lat_seconds_bucket{tenant="a",le="+Inf"} 3`,
		`lat_seconds_sum{tenant="a"} 99.55`,
		`lat_seconds_count{tenant="a"} 3`,
		"# HELP quiet_total no series yet",
		"# TYPE quiet_total counter",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output missing line %q\n--- got ---\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE reqs_total"); n != 1 {
		t.Errorf("# TYPE reqs_total emitted %d times, want exactly 1", n)
	}
	// The rendered text must satisfy our own strict linter.
	if err := LintPromText(strings.NewReader(out)); err != nil {
		t.Errorf("WriteText output fails lint: %v\n%s", err, out)
	}
}

func TestRegistryCounterSemantics(t *testing.T) {
	r := NewRegistry()
	c := mustCounter(t, r, "c_total", "h").With()
	c.Add(5)
	c.Add(-3) // ignored: counters are monotonic
	c.SetTotal(10)
	c.SetTotal(4) // ignored: decrease
	out := render(t, r)
	if !strings.Contains(out, "c_total 10\n") {
		t.Fatalf("counter semantics broken:\n%s", out)
	}
	g := mustGauge(t, r, "g", "h").With()
	g.Set(5)
	g.Set(-2) // gauges may move either way
	if out := render(t, r); !strings.Contains(out, "g -2\n") {
		t.Fatalf("gauge semantics broken:\n%s", out)
	}
}

// TestRegistryReset: Reset hides a family's series; a series resolved
// again comes back zeroed — a counter, a gauge and a histogram alike,
// never with the value it held before — and one left out of two rankings
// in a row is dropped, so a ranking family holds at most two rankings'
// series.
func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	g := mustGauge(t, r, "bins", "h", "tenant")
	g.With("a").Set(1)
	g.With("b").Set(2)
	if out := render(t, r); !strings.Contains(out, `tenant="a"`) || !strings.Contains(out, `tenant="b"`) {
		t.Fatalf("series missing before Reset:\n%s", out)
	}
	g.Reset()
	g.With("c").Set(3)
	if out := render(t, r); strings.Contains(out, `tenant="a"`) || strings.Contains(out, `tenant="b"`) || !strings.Contains(out, `tenant="c"`) {
		t.Fatalf("Reset broken:\n%s", out)
	}

	r = NewRegistry()
	g = mustGauge(t, r, "rank", "h", "tenant")
	c := mustCounter(t, r, "c_total", "h", "tenant")
	h := mustHistogram(t, r, "lat", "h", []float64{1}, "tenant")
	g.With("a").Set(5)
	g.With("b").Set(7)
	c.With("a").Add(9)
	h.With("a").Observe(0.5)
	g.Reset()
	c.Reset()
	h.Reset()
	out := render(t, r)
	if strings.Contains(out, "tenant=") {
		t.Fatalf("Reset left series rendered:\n%s", out)
	}
	g.With("b")
	c.With("a")
	h.With("a")
	out = render(t, r)
	for _, want := range []string{
		`rank{tenant="b"} 0`,
		`c_total{tenant="a"} 0`,
		`lat_bucket{tenant="a",le="1"} 0`,
		`lat_bucket{tenant="a",le="+Inf"} 0`,
		`lat_sum{tenant="a"} 0`,
		`lat_count{tenant="a"} 0`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("re-resolved series not zeroed: missing %q in\n%s", want, out)
		}
	}
	if strings.Contains(out, `rank{tenant="a"}`) {
		t.Errorf("a series not resolved since Reset rendered:\n%s", out)
	}
	if err := LintPromText(strings.NewReader(out)); err != nil {
		t.Fatal(err)
	}
	// "a" sat out one ranking: held, hidden. Sitting out a second drops it.
	if n := len(g.fam.sorted); n != 2 {
		t.Fatalf("after one Reset the family holds %d series, want 2", n)
	}
	g.Reset()
	if n := len(g.fam.sorted); n != 1 || g.fam.sorted[0].key != "b" || len(g.fam.series) != 1 {
		t.Fatalf("after a second Reset the family holds %d series, want only b", n)
	}
	g.With("a").Set(1)
	if out := render(t, r); !strings.Contains(out, `rank{tenant="a"} 1`+"\n") || strings.Contains(out, `rank{tenant="b"}`) {
		t.Fatalf("ranking after re-entry:\n%s", out)
	}
}

func TestFixedHistogramSetBuckets(t *testing.T) {
	r := NewRegistry()
	hv, err := r.Histogram("lat_seconds", "h", []float64{0.1, 1}, "level")
	if err != nil {
		t.Fatal(err)
	}
	h := hv.With("l0")
	h.SetBuckets([]uint64{2, 1}, 4, 7.5) // one observation above the last bound
	want := []string{
		`lat_seconds_bucket{level="l0",le="0.1"} 2`,
		`lat_seconds_bucket{level="l0",le="1"} 3`,
		`lat_seconds_bucket{level="l0",le="+Inf"} 4`,
		`lat_seconds_sum{level="l0"} 7.5`,
		`lat_seconds_count{level="l0"} 4`,
	}
	out := render(t, r)
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Fatalf("missing %q:\n%s", w, out)
		}
	}
	if err := LintPromText(strings.NewReader(out)); err != nil {
		t.Fatalf("SetBuckets output fails the linter: %v", err)
	}
	// A setter that lost a race to a newer total must not move it back.
	h.SetBuckets([]uint64{1, 1}, 2, 1)
	if out := render(t, r); !strings.Contains(out, want[4]) {
		t.Fatalf("a stale SetBuckets moved the count back:\n%s", out)
	}
	defer func() {
		if recover() == nil {
			t.Error("SetBuckets with the wrong bucket count did not panic")
		}
	}()
	h.SetBuckets([]uint64{1}, 1, 1)
}

func TestRegistryWithArityPanics(t *testing.T) {
	r := NewRegistry()
	c := mustCounter(t, r, "c_total", "h", "tenant")
	defer func() {
		if recover() == nil {
			t.Fatal("label-arity mismatch did not panic")
		}
	}()
	c.With("a", "b")
}

func TestRegistryHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := mustHistogram(t, r, "h", "h", []float64{1, 2, 4}).With()
	for _, x := range []float64{0.5, 1.5, 3, 100, math.NaN()} {
		h.Observe(x)
	}
	out := render(t, r)
	for _, want := range []string{
		`h_bucket{le="1"} 1`,
		`h_bucket{le="2"} 2`,
		`h_bucket{le="4"} 3`,
		`h_bucket{le="+Inf"} 4`,
		"h_count 4",
		"h_sum 105",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// A scrape racing instrument updates must neither corrupt state nor
// trip the race detector.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := mustCounter(t, r, "c_total", "h", "w")
	hv := mustHistogram(t, r, "h", "h", []float64{1, 10}, "w")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := strings.Repeat("w", w+1)
			for i := 0; i < 200; i++ {
				c.With(lbl).Inc()
				hv.With(lbl).Observe(float64(i))
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		_ = render(t, r)
	}
	wg.Wait()
	out := render(t, r)
	if err := LintPromText(strings.NewReader(out)); err != nil {
		t.Fatalf("concurrent output fails lint: %v", err)
	}
	if !strings.Contains(out, `c_total{w="w"} 200`) {
		t.Fatalf("lost counter increments:\n%s", out)
	}
}

// TestRegistryWriteTextSteadyStateAllocs: a warm WriteText of the golden
// registry allocates nothing, with a saturated ranking family Reset and
// resolved again before every render.
//
//hpm:pin mechanics
func TestRegistryWriteTextSteadyStateAllocs(t *testing.T) {
	r := goldenRegistry(t)
	top := mustGauge(t, r, "golden_top", "A ranking rebuilt every render.", "tenant")
	ids := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	render := func() {
		top.Reset()
		for i, id := range ids {
			top.With(id).Set(float64(1000 - i))
		}
		if err := r.WriteText(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	render()
	if allocs := testing.AllocsPerRun(50, render); allocs != 0 {
		t.Errorf("a warm WriteText allocates %v times, want 0", allocs)
	}
}
