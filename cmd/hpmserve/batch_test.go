package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"hierctl"
	"hierctl/internal/race"
)

func createFastTenant(t testing.TB, h http.Handler, id string) {
	t.Helper()
	doJSON(t, h, http.MethodPost, "/v1/tenants",
		fmt.Sprintf(`{"id":%q,"moduleSize":2,"fast":true,"binSeconds":30}`, id), http.StatusCreated)
}

// batchBody renders a /v1/observe:batch body of n entries.
func batchBody(n int, entry func(i int) string) string {
	var sb strings.Builder
	sb.WriteString(`{"entries":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(entry(i))
	}
	sb.WriteString(`]}`)
	return sb.String()
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
	doJSON(t, h, http.MethodPost, "/v1/observe:batch",
		batchBody(maxBatchEntries+1, func(int) string { return `{"tenant":"a","counts":[]}` }), http.StatusBadRequest)

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
	sv.batch = func(dst []hierctl.BatchResult, entries []hierctl.BatchEntry, _ bool) ([]hierctl.BatchResult, error) {
		for _, e := range entries {
			dst = append(dst, hierctl.BatchResult{Tenant: e.Tenant, Err: hierctl.ErrFleetQueueFull})
		}
		return dst, nil
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

// TestServerRejectsTrailingInput: a POST body is exactly one JSON value.
// A client that concatenates two payloads used to get the first applied
// and the second silently dropped; now anything but whitespace after the
// value is a 400 on every endpoint and nothing is applied.
func TestServerRejectsTrailingInput(t *testing.T) {
	h, _ := testHandler(t)
	createFastTenant(t, h, "a")
	const create = `{"id":"b","moduleSize":2,"fast":true,"binSeconds":30}`
	const observe = `{"count":100}`
	const batch = `{"entries":[{"tenant":"a","counts":[100]}]}`
	for _, c := range []struct{ path, body string }{
		{"/v1/tenants", create + create},
		{"/v1/tenants", create + ` x`},
		{"/v1/tenants/a/observe", observe + observe},
		{"/v1/tenants/a/observe", observe + `]`},
		{"/v1/observe:batch", batch + batch},
		{"/v1/observe:batch", batch + "\n" + batch},
		{"/v1/observe:batch", batch + `,`},
	} {
		resp := doJSON(t, h, http.MethodPost, c.path, c.body, http.StatusBadRequest)
		if msg, _ := resp["error"].(string); !strings.HasPrefix(msg, "decode request: ") {
			t.Errorf("POST %s with trailing input: error %q, want a decode error", c.path, msg)
		}
	}
	if bins := tenantBins(t, h, "a"); bins != 0 {
		t.Errorf("tenant a bins = %v after rejected bodies, want 0", bins)
	}
	doJSON(t, h, http.MethodGet, "/v1/tenants/b/state", "", http.StatusNotFound)

	// Trailing whitespace is not input.
	doJSON(t, h, http.MethodPost, "/v1/tenants", create+"\n", http.StatusCreated)
	doJSON(t, h, http.MethodPost, "/v1/tenants/a/observe", observe+" \r\n", http.StatusOK)
	doJSON(t, h, http.MethodPost, "/v1/observe:batch", batch+"\n\t ", http.StatusOK)
	if bins := tenantBins(t, h, "a"); bins != 2 {
		t.Errorf("tenant a bins = %v, want 2", bins)
	}

	// The body caps still hold, whether the body declares its length or
	// arrives chunked, of unknown length.
	for path, limit := range map[string]int{"/v1/tenants/a/observe": maxBodyBytes, "/v1/observe:batch": maxBatchBodyBytes} {
		resp := doJSON(t, h, http.MethodPost, path, strings.Repeat(" ", limit)+observe, http.StatusBadRequest)
		if msg, _ := resp["error"].(string); !strings.Contains(msg, "request body too large") {
			t.Errorf("POST %s over the body cap: error %q", path, msg)
		}
		req := httptest.NewRequest(http.MethodPost, path, io.MultiReader(strings.NewReader(strings.Repeat(" ", limit)), strings.NewReader(observe)))
		req.TransferEncoding = []string{"chunked"}
		if req.ContentLength != -1 {
			t.Fatalf("chunked request declares %d bytes", req.ContentLength)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "request body too large") {
			t.Errorf("chunked POST %s over the body cap = %d %s", path, w.Code, w.Body.String())
		}
	}
	if bins := tenantBins(t, h, "a"); bins != 2 {
		t.Errorf("tenant a bins = %v after oversized bodies, want 2", bins)
	}

	// A body running past its declared Content-Length is read only up to
	// it: the bytes after belong to the connection, not to the request,
	// so a body that would be trailing input if read whole still applies.
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	for path, body := range map[string]string{"/v1/tenants/a/observe": observe, "/v1/observe:batch": batch} {
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: %d\r\n\r\n%s%s", path, len(body), body, body)
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		reply, _ := io.ReadAll(resp.Body)
		conn.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("POST %s with bytes past its Content-Length = %d %s, want 200", path, resp.StatusCode, reply)
		}
	}
	if bins := tenantBins(t, h, "a"); bins != 4 {
		t.Errorf("tenant a bins = %v, want 4: one per over-long request", bins)
	}
}

// echoBatch stands in for the fleet fan-out: every entry applies in full,
// and a decisions:true call gets a decision naming the entry's bin count.
func echoBatch(dst []hierctl.BatchResult, entries []hierctl.BatchEntry, decisions bool) ([]hierctl.BatchResult, error) {
	for _, e := range entries {
		res := hierctl.BatchResult{Tenant: e.Tenant, Applied: len(e.Counts)}
		if decisions {
			res.LastDecision = &hierctl.BinDecision{Bin: len(e.Counts)}
		}
		dst = append(dst, res)
	}
	return dst, nil
}

// TestServerBatchScratchBounded: the request scratch is pooled, but only
// while it is small. One maximal batch (4096 entries, 65536 bins) must not
// leave its buffers behind — an idle daemon's memory would ratchet up to
// its largest request — while a full-width batch of one-bin entries, the
// 10k-tenant fan-out's shape, is kept.
//
//hpm:pin mechanics
func TestServerBatchScratchBounded(t *testing.T) {
	f := hierctl.NewFleet(hierctl.FleetConfig{Shards: 1})
	t.Cleanup(f.Close)
	sv := newServer(f, 0)
	sv.batch = echoBatch
	body := func(binsPerEntry int) string {
		return batchBody(maxBatchEntries, func(i int) string {
			return fmt.Sprintf(`{"tenant":"tenant-%04d","counts":[7%s]}`, i, strings.Repeat(",7", binsPerEntry-1))
		})
	}
	serve := func(binsPerEntry int) *batchScratch {
		body := body(binsPerEntry)
		sc := new(batchScratch)
		w := httptest.NewRecorder()
		if !sv.observeBatch(w, httptest.NewRequest(http.MethodPost, "/v1/observe:batch", strings.NewReader(body)), sc) || w.Code != http.StatusOK {
			t.Fatalf("batch = %d (body %.200s)", w.Code, w.Body.String())
		}
		if !strings.Contains(w.Body.String(), fmt.Sprintf(`{"applied":%d,`, maxBatchEntries*binsPerEntry)) {
			t.Fatalf("batch reply %.100s", w.Body.String())
		}
		return sc
	}
	if got := serve(1).recycle(); got > maxPooledScratchBytes {
		t.Errorf("a %d-entry one-bin batch retains %d B, over the %d B pooling bound: full-width fan-outs would never reuse their scratch", maxBatchEntries, got, maxPooledScratchBytes)
	}
	if got := serve(maxBatchBins / maxBatchEntries).recycle(); got <= maxPooledScratchBytes {
		t.Errorf("a maximal batch retains only %d B: the %d B bound does not bound anything", got, maxPooledScratchBytes)
	}

	// Through the handler: whatever the pool holds after a maximal batch is
	// under the bound.
	h := sv.routes()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/observe:batch", strings.NewReader(body(maxBatchBins/maxBatchEntries))))
	if w.Code != http.StatusOK {
		t.Fatalf("maximal batch = %d", w.Code)
	}
	for {
		sc, _ := sv.scratch.Get().(*batchScratch)
		if sc == nil {
			break
		}
		if got := sc.recycle(); got > maxPooledScratchBytes {
			t.Errorf("the pool kept a %d B scratch after a maximal batch, bound %d B", got, maxPooledScratchBytes)
		}
	}
}

// TestHandleObserveBatchSteadyStateAllocs: with a warm scratch pool a
// batch request costs heap per call, not per entry. Widening the request
// from 8 to 64 one-bin entries of registered tenants adds nothing: the
// decoded id is the fleet's own string, and there are no decode slices,
// result or row copies, job closures, decisions or controller copy-outs.
// An entry naming an unregistered tenant costs its one id string, the copy
// its per-entry error row names.
//
//hpm:pin mechanics
func TestHandleObserveBatchSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	const tenants = 64
	f := hierctl.NewFleet(hierctl.FleetConfig{Shards: 2})
	t.Cleanup(f.Close)
	h := newServer(f, 0).routes()
	for i := 0; i < tenants; i++ {
		createFastTenant(t, h, fmt.Sprintf("tenant-%02d", i))
	}
	// post sends one batch whose first known entries name registered
	// tenants and the rest, up to width, unregistered ones.
	post := func(width, known int) func() {
		body := batchBody(width, func(i int) string {
			if i >= known {
				return fmt.Sprintf(`{"tenant":"ghost-%02d","counts":[1]}`, i)
			}
			return fmt.Sprintf(`{"tenant":"tenant-%02d","counts":[%d]}`, i, 2+i%5)
		})
		want := fmt.Sprintf(`{"applied":%d,"rejected":0,`, known)
		row := fmt.Sprintf(`{"tenant":"ghost-%02d","applied":0,"error":%q}`, width-1, hierctl.ErrTenantNotFound.Error())
		return func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/observe:batch", strings.NewReader(body)))
			reply := w.Body.String()
			if w.Code != http.StatusOK || !strings.HasPrefix(reply, want) || known < width && !strings.Contains(reply, row) {
				t.Fatalf("batch of %d (%d registered) = %d %.120s", width, known, w.Code, reply)
			}
		}
	}
	narrow, wide, ghosts := post(8, 8), post(tenants, tenants), post(tenants, 8)
	// Warm the pool at full width and park every tenant between two
	// regrowths of its per-bin logs (append doubles at 256 and 512 bins).
	for i := 0; i < 300; i++ {
		wide()
	}
	for i := 0; i < 300; i++ {
		narrow()
	}
	ghosts()
	perNarrow := testing.AllocsPerRun(40, narrow)
	perWide := testing.AllocsPerRun(40, wide)
	perGhosts := testing.AllocsPerRun(40, ghosts)
	t.Logf("allocs per request: 8 entries %v, %d entries %v, 8 + %d unregistered %v", perNarrow, tenants, perWide, tenants-8, perGhosts)
	if perWide > perNarrow {
		t.Errorf("%d registered one-bin entries cost %v allocs per request, 8 cost %v: want no per-entry allocation", tenants, perWide, perNarrow)
	}
	if perUnknown := (perGhosts - perNarrow) / (tenants - 8); perUnknown < 1-0.25 || perUnknown > 1+0.25 {
		t.Errorf("an unregistered entry costs %.2f allocs per request, want 1 (its copied id)", perUnknown)
	}
}

// BenchmarkBatchDecode prices the decode of a /v1/observe:batch body of 256
// one-bin entries, wide-sparse's shape, into a warm scratch: fast is
// parseBatch, the strict decoder of the compact shape clients send, and
// unmarshal is json.Unmarshal, the path every other body takes. The
// tenants are registered, so the fast path names each by the fleet's own
// id string. Regenerate with
//
//	go test -run '^$' -bench BatchDecode -benchmem ./cmd/hpmserve/
func BenchmarkBatchDecode(b *testing.B) {
	const entries = 256
	f := hierctl.NewFleet(hierctl.FleetConfig{Shards: 1})
	b.Cleanup(f.Close)
	h := newServer(f, 0).routes()
	for i := 0; i < entries; i++ {
		createFastTenant(b, h, fmt.Sprintf("tenant-%03d", i))
	}
	body := []byte(batchBody(entries, func(i int) string {
		return fmt.Sprintf(`{"tenant":"tenant-%03d","counts":[%d]}`, i, 3+i%7)
	}))
	decoders := []struct {
		name   string
		decode func(sc *batchScratch) error
	}{
		{"fast", func(sc *batchScratch) error {
			if !parseBatch(body, &sc.req, f) {
				return fmt.Errorf("the fast path refused the body")
			}
			return nil
		}},
		{"unmarshal", func(sc *batchScratch) error { return json.Unmarshal(body, &sc.req) }},
	}
	for _, d := range decoders {
		b.Run(d.name, func(b *testing.B) {
			sc := new(batchScratch)
			if err := d.decode(sc); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.recycle()
				if err := d.decode(sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
