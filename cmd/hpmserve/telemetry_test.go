package main

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
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
// endpoint stays routable and returns an empty window.
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
	// The per-level histograms stay at their headers — no samples.
	if strings.Contains(scrape(t, h), `hpmserve_level_decide_seconds_count{level=`) {
		t.Error("level histograms populated with recording disabled")
	}
}

// TestServerMetricsTelemetry covers the /metrics rewrite end to end: the
// whole scrape of a serving daemon — a tenant created and observed, then a
// second tenant of the same shape sharing its learned artifacts — parses
// under the strict exposition linter (the check CI once piped a live scrape
// through), the flight-recorder drain populates the per-level histograms
// exactly once per record, and closing a tenant removes its per-tenant
// series.
func TestServerMetricsTelemetry(t *testing.T) {
	h, _ := testHandler(t)
	doJSON(t, h, http.MethodPost, "/v1/tenants",
		`{"id":"we\"ird","moduleSize":2,"fast":true}`, http.StatusCreated)
	for i := 0; i < 3; i++ {
		doJSON(t, h, http.MethodPost, "/v1/tenants/we%22ird/observe", `{"count":400}`, http.StatusOK)
	}
	doJSON(t, h, http.MethodPost, "/v1/tenants",
		`{"id":"twin","moduleSize":2,"fast":true}`, http.StatusCreated)

	body := scrape(t, h)
	if err := metrics.LintPromText(strings.NewReader(body)); err != nil {
		t.Fatalf("metrics output fails the exposition linter: %v\n%s", err, body)
	}
	for _, want := range []string{
		`hpmserve_tenant_bins{tenant="we\"ird"} 3`,
		`hpmserve_observe_seconds_count{tenant="we\"ird"} 3`,
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

	// The drain is cursor-based: a second scrape with no new observations
	// must not re-count the same records.
	l0Count := func(body string) int {
		m := regexp.MustCompile(`hpmserve_level_decide_seconds_count\{level="l0"\} (\d+)`).FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("no l0 decide count in:\n%s", body)
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	first := l0Count(body)
	if first == 0 {
		t.Fatal("no l0 decides drained")
	}
	if again := l0Count(scrape(t, h)); again != first {
		t.Errorf("idle rescrape moved the l0 decide count %d -> %d", first, again)
	}

	// Closing the tenant drops its per-tenant series on the next scrape.
	doJSON(t, h, http.MethodDelete, "/v1/tenants/we%22ird", "", http.StatusOK)
	doJSON(t, h, http.MethodDelete, "/v1/tenants/twin", "", http.StatusOK)
	after := scrape(t, h)
	if err := metrics.LintPromText(strings.NewReader(after)); err != nil {
		t.Fatalf("post-delete metrics fail the linter: %v", err)
	}
	for _, gone := range []string{
		`hpmserve_tenant_bins{tenant="we\"ird"}`,
		`hpmserve_observe_seconds_count{tenant="we\"ird"}`,
	} {
		if strings.Contains(after, gone) {
			t.Errorf("closed tenant's series %q still exported", gone)
		}
	}
	if !strings.Contains(after, "hpmserve_tenants 0") {
		t.Error("tenant gauge did not drop to 0")
	}
}

// TestServerMetricsCountDroppedTelemetry: when a tenant's flight-recorder
// ring wraps between two scrapes the drain can only fold what the ring
// still holds — and must say how much it missed, so the per-level
// histograms' undercount is visible. With a 64-record ring, the records
// the drains folded plus hpmserve_telemetry_dropped_records_total account
// for every record the tenant ever wrote.
func TestServerMetricsCountDroppedTelemetry(t *testing.T) {
	const ring = 64
	f := hierctl.NewFleet(hierctl.FleetConfig{Shards: 1})
	t.Cleanup(f.Close)
	h := newServer(f, ring).routes()
	createFastTenant(t, h, "small")

	dropped := func(body string) uint64 {
		m := regexp.MustCompile(`(?m)^hpmserve_telemetry_dropped_records_total (\d+)$`).FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("no unlabelled hpmserve_telemetry_dropped_records_total in:\n%s", body)
		}
		n, _ := strconv.ParseUint(m[1], 10, 64)
		return n
	}
	body := scrape(t, h)
	if err := metrics.LintPromText(strings.NewReader(body)); err != nil {
		t.Fatalf("metrics output fails the exposition linter: %v", err)
	}
	if n := dropped(body); n != 0 {
		t.Fatalf("dropped = %d before any observation", n)
	}

	var folded uint64
	for round := 0; round < 3; round++ {
		for i := 0; i < 40; i++ { // far more than 64 records between scrapes
			doJSON(t, h, http.MethodPost, "/v1/tenants/small/observe", `{"count":300}`, http.StatusOK)
		}
		_, before, err := f.Telemetry("small", 1)
		if err != nil {
			t.Fatal(err)
		}
		body = scrape(t, h)
		folded += ring
		if got, want := dropped(body), before-folded; got != want {
			t.Fatalf("round %d: dropped %d, want %d (%d records written, %d folded)", round, got, want, before, folded)
		}
	}
	if again := dropped(scrape(t, h)); again != dropped(body) {
		t.Errorf("idle rescrape moved the dropped count %d -> %d", dropped(body), again)
	}
}
