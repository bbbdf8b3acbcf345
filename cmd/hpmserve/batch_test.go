package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"hierctl"
)

func createFastTenant(t *testing.T, h http.Handler, id string) {
	t.Helper()
	doJSON(t, h, http.MethodPost, "/v1/tenants",
		fmt.Sprintf(`{"id":%q,"moduleSize":2,"fast":true,"binSeconds":30}`, id), http.StatusCreated)
}

func tenantBins(t *testing.T, h http.Handler, id string) float64 {
	t.Helper()
	st := doJSON(t, h, http.MethodGet, "/v1/tenants/"+id+"/state", "", http.StatusOK)
	bins, _ := st["bins"].(float64)
	return bins
}

// TestServerObserveBatch drives the happy path: one call carries several
// tenants' bin runs — including two entries for the same tenant, which
// apply consecutively — and decisions:true echoes each entry's last
// control decision.
func TestServerObserveBatch(t *testing.T) {
	h, _ := testHandler(t)
	createFastTenant(t, h, "a")
	createFastTenant(t, h, "b")

	resp := doJSON(t, h, http.MethodPost, "/v1/observe:batch",
		`{"entries":[{"tenant":"a","counts":[300,400]},{"tenant":"b","counts":[200]},{"tenant":"a","counts":[500]}],"decisions":true}`,
		http.StatusOK)
	if resp["applied"].(float64) != 4 {
		t.Errorf("applied = %v, want 4", resp["applied"])
	}
	if resp["rejected"].(float64) != 0 {
		t.Errorf("rejected = %v, want 0", resp["rejected"])
	}
	results := resp["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("results = %v, want 3 entries", results)
	}
	first := results[0].(map[string]any)
	if first["applied"].(float64) != 2 || first["tenant"] != "a" {
		t.Errorf("entry 0 = %v, want tenant a applied 2", first)
	}
	// Entry 2 is tenant a's third bin overall: its echoed decision must
	// carry bin index 2, proving the same-tenant entries applied in order.
	last := results[2].(map[string]any)
	dec, ok := last["lastDecision"].(map[string]any)
	if !ok {
		t.Fatalf("entry 2 missing lastDecision: %v", last)
	}
	if dec["bin"].(float64) != 2 {
		t.Errorf("entry 2 decision bin = %v, want 2", dec["bin"])
	}
	if bins := tenantBins(t, h, "a"); bins != 3 {
		t.Errorf("tenant a bins = %v, want 3", bins)
	}
	if bins := tenantBins(t, h, "b"); bins != 1 {
		t.Errorf("tenant b bins = %v, want 1", bins)
	}

	// An empty counts run is a valid no-op entry.
	resp = doJSON(t, h, http.MethodPost, "/v1/observe:batch",
		`{"entries":[{"tenant":"a","counts":[]}]}`, http.StatusOK)
	if resp["applied"].(float64) != 0 {
		t.Errorf("no-op applied = %v, want 0", resp["applied"])
	}
}

// TestServerObserveBatchValidation pins the all-or-nothing contract: a
// malformed request 400s before any bin of any entry is applied.
func TestServerObserveBatchValidation(t *testing.T) {
	h, _ := testHandler(t)
	createFastTenant(t, h, "a")

	doJSON(t, h, http.MethodPost, "/v1/observe:batch", `{broken`, http.StatusBadRequest)
	doJSON(t, h, http.MethodPost, "/v1/observe:batch", `{"entries":[]}`, http.StatusBadRequest)
	// Malformed bins anywhere in the batch poison the whole call, even
	// when earlier entries are valid.
	for _, body := range []string{
		`{"entries":[{"tenant":"a","counts":[100]},{"tenant":"a","counts":[-1]}]}`,
		`{"entries":[{"tenant":"a","counts":[100]},{"tenant":"a","counts":[1e15]}]}`,
		`{"entries":[{"tenant":"a","counts":[100]},{"tenant":"bad id","counts":[100]}]}`,
		`{"entries":[{"tenant":"a","counts":[100]},{"tenant":"","counts":[100]}]}`,
	} {
		doJSON(t, h, http.MethodPost, "/v1/observe:batch", body, http.StatusBadRequest)
	}
	if bins := tenantBins(t, h, "a"); bins != 0 {
		t.Errorf("tenant a bins = %v after rejected batches, want 0", bins)
	}

	// Width caps: one entry over the per-batch entry limit.
	var sb strings.Builder
	sb.WriteString(`{"entries":[`)
	for i := 0; i <= maxBatchEntries; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"tenant":"a","counts":[]}`)
	}
	sb.WriteString(`]}`)
	doJSON(t, h, http.MethodPost, "/v1/observe:batch", sb.String(), http.StatusBadRequest)

	req := httptest.NewRequest(http.MethodGet, "/v1/observe:batch", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/observe:batch = %d, want 405", w.Code)
	}
}

// TestServerObserveBatchUnknownTenantMidBatch pins the partial-success
// contract: an unknown tenant in the middle of the batch fails only its
// own entry; the surrounding entries' bins stand and the call stays 200.
func TestServerObserveBatchUnknownTenantMidBatch(t *testing.T) {
	h, _ := testHandler(t)
	createFastTenant(t, h, "a")

	resp := doJSON(t, h, http.MethodPost, "/v1/observe:batch",
		`{"entries":[{"tenant":"a","counts":[100]},{"tenant":"ghost","counts":[100]},{"tenant":"a","counts":[100]}]}`,
		http.StatusOK)
	if resp["applied"].(float64) != 2 {
		t.Errorf("applied = %v, want 2", resp["applied"])
	}
	results := resp["results"].([]any)
	ghost := results[1].(map[string]any)
	if msg, _ := ghost["error"].(string); !strings.Contains(msg, "not found") {
		t.Errorf("ghost entry error = %q, want a not-found message", msg)
	}
	if ghost["applied"].(float64) != 0 {
		t.Errorf("ghost applied = %v, want 0", ghost["applied"])
	}
	for _, i := range []int{0, 2} {
		if msg, _ := results[i].(map[string]any)["error"].(string); msg != "" {
			t.Errorf("entry %d unexpectedly errored: %q", i, msg)
		}
	}
	if bins := tenantBins(t, h, "a"); bins != 2 {
		t.Errorf("tenant a bins = %v, want 2", bins)
	}
}

// TestServerObserveBatchQueueFull pins the backpressure contract: when
// the fleet reports full shard queues, the endpoint answers 429 with
// Retry-After and per-entry errors, so clients know exactly which
// entries to resend. The fleet call is stubbed — deterministically
// wedging a real shard queue through HTTP would race the drain.
func TestServerObserveBatchQueueFull(t *testing.T) {
	f := hierctl.NewFleet(hierctl.FleetConfig{Shards: 1})
	t.Cleanup(f.Close)
	sv := newServer(f, 0)
	sv.batch = func(entries []hierctl.BatchEntry) ([]hierctl.BatchResult, error) {
		out := make([]hierctl.BatchResult, len(entries))
		for i, e := range entries {
			out[i] = hierctl.BatchResult{Tenant: e.Tenant, Err: hierctl.ErrFleetQueueFull}
		}
		return out, nil
	}
	h := sv.routes()

	req := httptest.NewRequest(http.MethodPost, "/v1/observe:batch",
		strings.NewReader(`{"entries":[{"tenant":"a","counts":[100]},{"tenant":"b","counts":[100]}]}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", w.Code, w.Body.String())
	}
	if got := w.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	body := w.Body.String()
	if !strings.Contains(body, `"rejected":2`) || !strings.Contains(body, "queue full") {
		t.Errorf("429 body missing per-entry rejections: %s", body)
	}
}

// TestServerBatchAndJournalMetrics verifies the new series surface on
// /metrics: batch shape histograms, the queue-reject counter, per-shard
// queue depths, and — when a journal is attached — its size counters.
func TestServerBatchAndJournalMetrics(t *testing.T) {
	f := hierctl.NewFleet(hierctl.FleetConfig{Shards: 2})
	t.Cleanup(f.Close)
	sv := newServer(f, 0)
	jnl, err := hierctl.OpenFleetJournal(f, filepath.Join(t.TempDir(), "fleet.log"), hierctl.FleetJournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jnl.Close() })
	sv.journal = jnl
	h := sv.routes()

	createFastTenant(t, h, "m")
	doJSON(t, h, http.MethodPost, "/v1/observe:batch",
		`{"entries":[{"tenant":"m","counts":[250,250]}]}`, http.StatusOK)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		"# TYPE hpmserve_batch_entries histogram",
		"hpmserve_batch_entries_count 1",
		"hpmserve_batch_bins_sum 2",
		"hpmserve_queue_rejects_total 0",
		`hpmserve_shard_queue_depth{shard="0"}`,
		`hpmserve_shard_queue_depth{shard="1"}`,
		"# TYPE hpmserve_journal_base_bytes gauge",
		"hpmserve_journal_compactions_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Base bytes must reflect the opened journal's compacted snapshot.
	if strings.Contains(body, "hpmserve_journal_base_bytes 0\n") {
		t.Error("journal base bytes = 0, want the compacted snapshot size")
	}
}

// TestRunJournalPersistence drives the real daemon loop in journal mode:
// boot, ingest over the batch endpoint, shut down (flushing the
// journal), and reboot recovering the fleet from the log.
func TestRunJournalPersistence(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "fleet.log")
	base, out, stop := bootDaemon(t, "-journal", logPath)
	httpDo(t, http.MethodPost, base+"/v1/tenants", webTenant, http.StatusCreated)
	httpDo(t, http.MethodPost, base+"/v1/observe:batch",
		`{"entries":[{"tenant":"web","counts":[500,600]}]}`, http.StatusOK)
	if err := stop(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "journal flushed") {
		t.Fatalf("no shutdown journal flush; output: %q", out.String())
	}

	base, out, stop = bootDaemon(t, "-journal", logPath)
	if !strings.Contains(out.String(), "1 tenants recovered") {
		t.Errorf("recovery not reported; output: %q", out.String())
	}
	if body := httpDo(t, http.MethodGet, base+"/v1/tenants/web/state", "", http.StatusOK); !strings.Contains(body, `"bins":2`) {
		t.Fatalf("recovered state = %s", body)
	}
	if err := stop(); err != nil {
		t.Fatalf("run (second boot): %v", err)
	}
}

func TestRunJournalFlagValidation(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"-journal-interval", "5s"}, io.Discard); err == nil {
		t.Error("journal interval without journal path: want error")
	}
	if err := run(ctx, []string{"-journal-interval", "-5s", "-journal", "x"}, io.Discard); err == nil {
		t.Error("negative journal interval: want error")
	}
}
