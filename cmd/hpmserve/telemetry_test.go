package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hierctl"
	"hierctl/internal/metrics"
)

func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", w.Code)
	}
	return w.Body.String()
}

// TestServerTelemetryEndpoint drives GET /v1/tenants/{id}/telemetry: the
// recent flight-recorder window comes back as JSON, ?max bounds it, and
// bad parameters or unknown tenants produce the usual error statuses.
func TestServerTelemetryEndpoint(t *testing.T) {
	h, _ := testHandler(t)
	doJSON(t, h, http.MethodPost, "/v1/tenants",
		`{"id":"tel","moduleSize":2,"fast":true}`, http.StatusCreated)
	for i := 0; i < 3; i++ {
		doJSON(t, h, http.MethodPost, "/v1/tenants/tel/observe", `{"count":400}`, http.StatusOK)
	}

	resp := doJSON(t, h, http.MethodGet, "/v1/tenants/tel/telemetry", "", http.StatusOK)
	if resp["tenant"] != "tel" {
		t.Errorf("tenant = %v", resp["tenant"])
	}
	total := resp["total"].(float64)
	records, ok := resp["records"].([]any)
	if !ok || len(records) == 0 {
		t.Fatalf("records = %v, want a non-empty window", resp["records"])
	}
	if total != float64(len(records)) {
		t.Errorf("total %v != %d records before any wraparound", total, len(records))
	}
	levels := map[string]int{}
	for _, raw := range records {
		rec := raw.(map[string]any)
		levels[rec["level"].(string)]++
		if _, ok := rec["tick"].(float64); !ok {
			t.Fatalf("record missing tick: %v", rec)
		}
	}
	// A single-module tenant has no L2 arbiter; tick/L0/L1 must be there.
	for _, lv := range []string{"tick", "l0", "l1"} {
		if levels[lv] == 0 {
			t.Errorf("no %q records (%v)", lv, levels)
		}
	}

	bounded := doJSON(t, h, http.MethodGet, "/v1/tenants/tel/telemetry?max=2", "", http.StatusOK)
	if got := bounded["records"].([]any); len(got) != 2 {
		t.Errorf("max=2 returned %d records", len(got))
	}
	if bounded["total"].(float64) != total {
		t.Errorf("bounded total %v, want %v", bounded["total"], total)
	}

	doJSON(t, h, http.MethodGet, "/v1/tenants/tel/telemetry?max=0", "", http.StatusBadRequest)
	doJSON(t, h, http.MethodGet, "/v1/tenants/tel/telemetry?max=x", "", http.StatusBadRequest)
	doJSON(t, h, http.MethodGet, "/v1/tenants/ghost/telemetry", "", http.StatusNotFound)
}

// TestServerTelemetryDisabled pins the -telemetry-records 0 path: the
// endpoint stays routable and returns an empty window, and /metrics still
// counts the decisions.
func TestServerTelemetryDisabled(t *testing.T) {
	f := hierctl.NewFleet(hierctl.FleetConfig{Shards: 1})
	t.Cleanup(f.Close)
	h := newServer(f, 0).routes()
	doJSON(t, h, http.MethodPost, "/v1/tenants",
		`{"id":"off","moduleSize":2,"fast":true}`, http.StatusCreated)
	doJSON(t, h, http.MethodPost, "/v1/tenants/off/observe", `{"count":400}`, http.StatusOK)
	resp := doJSON(t, h, http.MethodGet, "/v1/tenants/off/telemetry", "", http.StatusOK)
	if total := resp["total"].(float64); total != 0 {
		t.Errorf("total = %v, want 0 with recording disabled", total)
	}
	if records := resp["records"].([]any); len(records) != 0 {
		t.Errorf("records = %v, want empty", records)
	}
	// /metrics does not read the ring: the per-level histograms count the
	// bin's decisions all the same.
	if !strings.Contains(scrape(t, h), `hpmserve_level_decide_seconds_count{level="l0"}`) {
		t.Error("level histograms empty with recording disabled")
	}
}

// TestServerMetricsTelemetry covers /metrics end to end: the whole scrape
// of a serving daemon — a tenant created and observed, then a second tenant
// of the same shape sharing its learned artifacts — parses under the strict
// exposition linter (the check CI once piped a live scrape through), the
// shards' step-time counts populate the per-level histograms, and a closed
// tenant leaves the worst-tenant rankings while the fleet totals keep what
// it contributed.
func TestServerMetricsTelemetry(t *testing.T) {
	h, _ := testHandler(t)
	doJSON(t, h, http.MethodPost, "/v1/tenants",
		`{"id":"we\"ird","moduleSize":2,"fast":true}`, http.StatusCreated)
	for i := 0; i < 3; i++ { // overloaded: every control period violates the QoS target
		doJSON(t, h, http.MethodPost, "/v1/tenants/we%22ird/observe", `{"count":3000}`, http.StatusOK)
	}
	doJSON(t, h, http.MethodPost, "/v1/tenants",
		`{"id":"twin","moduleSize":2,"fast":true}`, http.StatusCreated)

	body := scrape(t, h)
	if err := metrics.LintPromText(strings.NewReader(body)); err != nil {
		t.Fatalf("metrics output fails the exposition linter: %v\n%s", err, body)
	}
	for _, want := range []string{
		"hpmserve_observe_seconds_count 3",
		"hpmserve_qos_violations_total 3",
		// The only place a tenant id is a label value: the rankings.
		`hpmserve_qos_violations_top{tenant="we\"ird"} 3`,
		`hpmserve_level_decide_seconds_count{level="l0"}`,
		`hpmserve_level_explored_count{level="l1"}`,
		"# TYPE hpmserve_level_decide_seconds histogram",
		"hpmserve_tenants 2",
		// Two hardware kinds learned once; the twin shares both.
		`hpmserve_artifact_learns_total{kind="gmap"} 2`,
		`hpmserve_artifact_shares_total{kind="gmap"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}

	// A scrape reads the totals and moves none: a second scrape with no
	// new observations reports the same count.
	first := levelCount(t, body, "decide_seconds", "l0")
	if first == 0 {
		t.Fatal("no l0 decides counted")
	}
	if again := levelCount(t, scrape(t, h), "decide_seconds", "l0"); again != first {
		t.Errorf("idle rescrape moved the l0 decide count %d -> %d", first, again)
	}

	// Closing the tenants empties the rankings and the gauges; the
	// counters are monotonic and keep the closed tenants' share.
	doJSON(t, h, http.MethodDelete, "/v1/tenants/we%22ird", "", http.StatusOK)
	doJSON(t, h, http.MethodDelete, "/v1/tenants/twin", "", http.StatusOK)
	after := scrape(t, h)
	if err := metrics.LintPromText(strings.NewReader(after)); err != nil {
		t.Fatalf("post-delete metrics fail the linter: %v", err)
	}
	if strings.Contains(after, `tenant="`) {
		t.Errorf("a closed tenant is still a label value:\n%s", after)
	}
	for _, want := range []string{"hpmserve_tenants 0", "hpmserve_operational_computers 0", "hpmserve_observe_seconds_count 3"} {
		if !strings.Contains(after, want) {
			t.Errorf("post-delete metrics missing %q", want)
		}
	}
	if got := sampleValue(t, after, "hpmserve_qos_violations_total"); got < 3 {
		t.Errorf("hpmserve_qos_violations_total fell to %v after the close", got)
	}
	if got := levelCount(t, after, "decide_seconds", "l0"); got < first {
		t.Errorf("l0 decide count fell %d -> %d after the close", first, got)
	}
}

// sampleValue reads the value of the sample line starting with prefix
// (a metric name, with its label set if it has one).
func sampleValue(t *testing.T, body, prefix string) float64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(prefix) + ` (\S+)$`).FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("no %q sample in:\n%s", prefix, body)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("%q: %v", m[0], err)
	}
	return v
}

// levelCount reads hpmserve_level_<hist>_count{level=...}.
func levelCount(t *testing.T, body, hist, level string) int {
	t.Helper()
	return int(sampleValue(t, body, fmt.Sprintf(`hpmserve_level_%s_count{level=%q}`, hist, level)))
}

// TestMetricsFoldExactAcrossRingWrap: /metrics counts every decision the
// tenants made, whatever the size of their flight-recorder rings, which
// only /telemetry reads. At rings of 0, 2 and 64 records — off, smaller
// than one bin's output, and wrapped several times over before the only
// scrape — and 4096, two tenants step the same bins, and one of them is
// closed mid-stream. Per level, hpmserve_level_*_count and the explored
// sum are what twins with rings large enough to keep everything wrote in
// decision records, the QoS, degraded and stale totals are what their tick
// records show, the explored buckets match the twins' scrape, and the
// closed tenant's share stays.
func TestMetricsFoldExactAcrossRingWrap(t *testing.T) {
	const bins = 240
	twins := hierctl.NewFleet(hierctl.FleetConfig{Shards: 1})
	t.Cleanup(twins.Close)
	th := newServer(twins, 1<<16).routes()
	for _, id := range []string{"gone", "stays"} {
		createFastTenant(t, th, id)
	}
	// Every ninth bin is overloaded, so the QoS total has something to count.
	body := func(i int) string {
		if i%9 == 0 {
			return `{"count":3000}`
		}
		return fmt.Sprintf(`{"count":%d}`, 150+37*i%400)
	}
	for _, id := range []string{"gone", "stays"} {
		for i := 0; i < bins; i++ {
			doJSON(t, th, http.MethodPost, "/v1/tenants/"+id+"/observe", body(i), http.StatusOK)
		}
	}
	// The decision and tick records the twins wrote: what the rings must
	// not matter to.
	decisions := map[hierctl.TelemetryLevel]int{}
	explored := map[hierctl.TelemetryLevel]int64{}
	var qos, degraded, stale int
	for _, id := range []string{"gone", "stays"} {
		recs, total, err := twins.Telemetry(id, 0)
		if err != nil || int(total) != len(recs) {
			t.Fatalf("twin %s: %d of %d records retained, err %v", id, len(recs), total, err)
		}
		for _, r := range recs {
			switch {
			case r.Level == hierctl.TelemetryLevel(0): // tick
				if r.QoS {
					qos++
				}
				if r.Degraded {
					degraded++
				}
				stale += int(r.Stale)
			case r.Level == hierctl.TelemetryLevel(1) || // every L0 record is a decision
				r.Level == hierctl.TelemetryLevel(2) && r.Comp == -1 || // L1 summary
				r.Level == hierctl.TelemetryLevel(3) && r.Module == -1: // L2 summary
				decisions[r.Level]++
				explored[r.Level] += int64(r.Explored)
			}
		}
	}
	if decisions[hierctl.TelemetryLevel(2)] == 0 || qos == 0 {
		t.Fatalf("the twins decided %v with %d QoS violations: nothing to compare", decisions, qos)
	}
	exploredFamily := func(body string) []string {
		var lines []string
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, "hpmserve_level_explored") {
				lines = append(lines, line)
			}
		}
		return lines
	}
	twinExplored := exploredFamily(scrape(t, th))

	for _, ring := range []int{0, 2, 64, 4096} {
		t.Run(fmt.Sprintf("ring=%d", ring), func(t *testing.T) {
			f := hierctl.NewFleet(hierctl.FleetConfig{Shards: 2})
			t.Cleanup(f.Close)
			h := newServer(f, ring).routes()
			observe := func(id string, from, to int) {
				for i := from; i < to; i++ {
					doJSON(t, h, http.MethodPost, "/v1/tenants/"+id+"/observe", body(i), http.StatusOK)
				}
			}
			for _, id := range []string{"gone", "stays"} {
				createFastTenant(t, h, id)
			}
			observe("gone", 0, bins)
			observe("stays", 0, bins/2)
			doJSON(t, h, http.MethodDelete, "/v1/tenants/gone", "", http.StatusOK)
			observe("stays", bins/2, bins)

			got := scrape(t, h)
			for level, n := range decisions {
				for _, hist := range []string{"decide_seconds", "explored"} {
					if c := levelCount(t, got, hist, level.String()); c != n {
						t.Errorf("hpmserve_level_%s_count{level=%q} = %d, want %d decisions", hist, level, c, n)
					}
				}
				if sum := sampleValue(t, got, fmt.Sprintf(`hpmserve_level_explored_sum{level=%q}`, level)); sum != float64(explored[level]) {
					t.Errorf("hpmserve_level_explored_sum{level=%q} = %v, want %d", level, sum, explored[level])
				}
			}
			for name, want := range map[string]int{
				"hpmserve_qos_violations_total":     qos,
				"hpmserve_degraded_ticks_total":     degraded,
				"hpmserve_stale_observations_total": stale,
			} {
				if v := sampleValue(t, got, name); v != float64(want) {
					t.Errorf("%s = %v, want %d", name, v, want)
				}
			}
			if lines := exploredFamily(got); !slices.Equal(lines, twinExplored) {
				t.Errorf("hpmserve_level_explored:\n%s\nthe twins':\n%s", strings.Join(lines, "\n"), strings.Join(twinExplored, "\n"))
			}
			if _, written, err := f.Telemetry("stays", 1); err != nil || ring > 0 && ring <= 64 && written < 4*uint64(ring) {
				t.Fatalf("tenant stays wrote %d records (err %v): not enough to wrap its %d-record ring", written, err, ring)
			}
		})
	}
}

// metricLines splits a scrape's sample lines into the worst-tenant
// rankings (by family) and everything else.
func metricLines(body string) (fixed int, top map[string]int) {
	top = map[string]int{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if name, _, ok := strings.Cut(line, "{tenant="); ok {
			top[name]++
			continue
		}
		fixed++
	}
	return fixed, top
}

// TestMetricsCardinalityFlatInTenants: a scrape's sample lines do not grow
// with the number of tenants. Fleets of 4, 64 and 512 observed tenants
// render the same lines except for the worst-tenant rankings, which name
// min(tenants, K) tenants. What a scrape allocates is
// TestHandleMetricsSteadyStateAllocs'.
func TestMetricsCardinalityFlatInTenants(t *testing.T) {
	type fleetScrape struct {
		fixed int
		top   map[string]int
	}
	measure := func(tenants int) fleetScrape {
		f := hierctl.NewFleet(hierctl.FleetConfig{Shards: 2, QueueDepth: tenants})
		defer f.Close()
		h := newServer(f, 256).routes()
		for i := 0; i < tenants; i++ {
			createFastTenant(t, h, fmt.Sprintf("t%03d", i))
		}
		// Three overloaded bins each: every tenant violates its QoS target.
		doJSON(t, h, http.MethodPost, "/v1/observe:batch",
			batchBody(tenants, func(i int) string { return fmt.Sprintf(`{"tenant":"t%03d","counts":[2000,3000,100]}`, i) }),
			http.StatusOK)
		body := scrape(t, h)
		if err := metrics.LintPromText(strings.NewReader(body)); err != nil {
			t.Fatalf("%d tenants: metrics output fails the exposition linter: %v", tenants, err)
		}
		if got := sampleValue(t, body, "hpmserve_tenants"); got != float64(tenants) {
			t.Fatalf("hpmserve_tenants = %v, want %d", got, tenants)
		}
		out := fleetScrape{}
		out.fixed, out.top = metricLines(body)
		return out
	}
	small, mid, large := measure(4), measure(64), measure(512)
	if small.fixed != mid.fixed || mid.fixed != large.fixed {
		t.Errorf("sample lines outside the rankings: %d with 4 tenants, %d with 64, %d with 512; want equal",
			small.fixed, mid.fixed, large.fixed)
	}
	if got := small.top["hpmserve_qos_violations_top"]; got != 4 {
		t.Errorf("4 tenants: %d ranked QoS violators, want 4", got)
	}
	for _, s := range []fleetScrape{mid, large} {
		if got := s.top["hpmserve_qos_violations_top"]; got != hierctl.FleetTopK {
			t.Errorf("%d ranked QoS violators, want the ranking saturated at %d", got, hierctl.FleetTopK)
		}
		for name, n := range s.top {
			if n > hierctl.FleetTopK {
				t.Errorf("%s has %d series, want <= %d", name, n, hierctl.FleetTopK)
			}
		}
	}
	t.Logf("%d fixed sample lines", large.fixed)
}

// TestHandleMetricsSteadyStateAllocs: a warm /metrics scrape allocates
// nothing in the handler — the telemetry read, the queue depths, the
// rankings (saturated, so every one is Reset and resolved again) and the
// render buffer are the server's retained scratch — at 64 tenants and at
// 512, into a reused writer.
//
//hpm:pin mechanics
func TestHandleMetricsSteadyStateAllocs(t *testing.T) {
	for _, tenants := range []int{64, 512} {
		f := hierctl.NewFleet(hierctl.FleetConfig{Shards: 2, QueueDepth: tenants})
		sv := newServer(f, 256)
		h := sv.routes()
		for i := 0; i < tenants; i++ {
			createFastTenant(t, h, fmt.Sprintf("t%03d", i))
		}
		doJSON(t, h, http.MethodPost, "/v1/observe:batch",
			batchBody(tenants, func(i int) string { return fmt.Sprintf(`{"tenant":"t%03d","counts":[2000,3000,100]}`, i) }),
			http.StatusOK)
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		w := &replyWriter{header: http.Header{}}
		serve := func() {
			w.body.Reset()
			sv.handleMetrics(w, req)
		}
		serve()
		if _, top := metricLines(w.body.String()); top["hpmserve_qos_violations_top"] != hierctl.FleetTopK {
			t.Fatalf("%d tenants: %d ranked QoS violators, want the ranking saturated at %d", tenants, top["hpmserve_qos_violations_top"], hierctl.FleetTopK)
		}
		if err := metrics.LintPromText(bytes.NewReader(w.body.Bytes())); err != nil {
			t.Fatalf("%d tenants: %v", tenants, err)
		}
		if allocs := testing.AllocsPerRun(50, serve); allocs != 0 {
			t.Errorf("%d tenants: a warm scrape allocates %v times in the handler, want 0", tenants, allocs)
		}
		f.Close()
	}
}

// TestConcurrentScrapesStayConsistent scrapes from several goroutines at
// once (run under -race) while ingest keeps reordering the rankings: every
// scrape lints clean and names at most FleetTopK tenants per ranking —
// never the union of two — whether it reused the server's scratch or made
// its own.
//
//hpm:pin scrape
func TestConcurrentScrapesStayConsistent(t *testing.T) {
	const tenants, scrapers, scrapes = 16, 4, 20
	f := hierctl.NewFleet(hierctl.FleetConfig{Shards: 2})
	defer f.Close()
	h := newServer(f, 64).routes()
	for i := 0; i < tenants; i++ {
		createFastTenant(t, h, fmt.Sprintf("t%02d", i))
	}
	stop := make(chan struct{})
	ingested := make(chan struct{})
	go func() {
		defer close(ingested)
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			// A rotating overloaded tenant set moves the rankings every round.
			body := batchBody(tenants, func(i int) string {
				count := 10
				if (i+round)%tenants < tenants/2 {
					count = 3000
				}
				return fmt.Sprintf(`{"tenant":"t%02d","counts":[%d]}`, i, count)
			})
			req := httptest.NewRequest(http.MethodPost, "/v1/observe:batch", strings.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Errorf("batch round %d = %d %s", round, w.Code, w.Body.String())
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < scrapers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < scrapes; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
				if w.Code != http.StatusOK {
					t.Errorf("GET /metrics = %d", w.Code)
					return
				}
				if err := metrics.LintPromText(bytes.NewReader(w.Body.Bytes())); err != nil {
					t.Errorf("concurrent scrape fails the linter: %v", err)
					return
				}
				_, top := metricLines(w.Body.String())
				for name, n := range top {
					if n > hierctl.FleetTopK {
						t.Errorf("%s has %d series in one scrape, want <= %d", name, n, hierctl.FleetTopK)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-ingested
}
