package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hierctl"
)

func testHandler(t *testing.T) (http.Handler, *hierctl.Fleet) {
	t.Helper()
	f := hierctl.NewFleet(hierctl.FleetConfig{Shards: 2})
	t.Cleanup(f.Close)
	return newServer(f, 1<<12).routes(), f
}

func doJSON(t testing.TB, h http.Handler, method, path, body string, wantStatus int) map[string]any {
	t.Helper()
	var r io.Reader
	if body != "" {
		r = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, r)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != wantStatus {
		t.Fatalf("%s %s = %d, want %d (body %s)", method, path, w.Code, wantStatus, w.Body.String())
	}
	out := map[string]any{}
	if len(w.Body.Bytes()) > 0 && strings.Contains(w.Header().Get("Content-Type"), "json") {
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, path, w.Body.String(), err)
		}
	}
	return out
}

func TestServerTenantLifecycle(t *testing.T) {
	h, _ := testHandler(t)
	created := doJSON(t, h, http.MethodPost, "/v1/tenants",
		`{"id":"web","moduleSize":2,"fast":true,"binSeconds":30,"seed":7}`, http.StatusCreated)
	if created["computers"].(float64) != 2 {
		t.Errorf("computers = %v, want 2", created["computers"])
	}

	// Feed a few observation bins; each response is a full decision.
	var dec map[string]any
	for i := 0; i < 4; i++ {
		dec = doJSON(t, h, http.MethodPost, "/v1/tenants/web/observe", `{"count":600}`, http.StatusOK)
	}
	if dec["bin"].(float64) != 3 {
		t.Errorf("bin = %v, want 3", dec["bin"])
	}
	mods, ok := dec["modules"].([]any)
	if !ok || len(mods) != 1 {
		t.Fatalf("modules = %v, want 1 module decision", dec["modules"])
	}
	m := mods[0].(map[string]any)
	for _, key := range []string{"alpha", "gamma", "freqIdx", "freqHz"} {
		if arr, ok := m[key].([]any); !ok || len(arr) != 2 {
			t.Errorf("module decision %s = %v, want 2 entries", key, m[key])
		}
	}
	if dec["operational"].(float64) < 1 {
		t.Error("no operational computers under load")
	}

	st := doJSON(t, h, http.MethodGet, "/v1/tenants/web/state", "", http.StatusOK)
	if st["bins"].(float64) != 4 {
		t.Errorf("state bins = %v, want 4", st["bins"])
	}
	if st["lastDecision"] == nil {
		t.Error("state missing last decision")
	}

	list := doJSON(t, h, http.MethodGet, "/v1/tenants", "", http.StatusOK)
	if tenants := list["tenants"].([]any); len(tenants) != 1 {
		t.Errorf("tenant list = %v, want 1 entry", tenants)
	}

	final := doJSON(t, h, http.MethodDelete, "/v1/tenants/web", "", http.StatusOK)
	if final["completed"].(float64) <= 0 {
		t.Errorf("final record completed = %v, want > 0", final["completed"])
	}
	doJSON(t, h, http.MethodGet, "/v1/tenants/web/state", "", http.StatusNotFound)
}

func TestServerErrors(t *testing.T) {
	h, _ := testHandler(t)
	doJSON(t, h, http.MethodPost, "/v1/tenants", `{"moduleSize":2}`, http.StatusBadRequest) // no id
	doJSON(t, h, http.MethodPost, "/v1/tenants", `{broken`, http.StatusBadRequest)
	doJSON(t, h, http.MethodPost, "/v1/tenants/nope/observe", `{"count":1}`, http.StatusNotFound)
	doJSON(t, h, http.MethodDelete, "/v1/tenants/nope", "", http.StatusNotFound)
	doJSON(t, h, http.MethodPost, "/v1/tenants",
		`{"id":"a","moduleSize":2,"fast":true}`, http.StatusCreated)
	doJSON(t, h, http.MethodPost, "/v1/tenants",
		`{"id":"a","moduleSize":2,"fast":true}`, http.StatusConflict)
	doJSON(t, h, http.MethodPost, "/v1/tenants",
		`{"id":"b","moduleSize":2,"fast":true,"binSeconds":45}`, http.StatusBadRequest)
	req := httptest.NewRequest(http.MethodPut, "/v1/tenants", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("PUT /v1/tenants = %d, want 405", w.Code)
	}
}

func TestServerMetrics(t *testing.T) {
	h, _ := testHandler(t)
	doJSON(t, h, http.MethodPost, "/v1/tenants",
		`{"id":"m1","moduleSize":2,"fast":true}`, http.StatusCreated)
	doJSON(t, h, http.MethodPost, "/v1/tenants/m1/observe", `{"count":300}`, http.StatusOK)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		"# TYPE hpmserve_tenants gauge",
		"hpmserve_tenants 1",
		"# TYPE hpmserve_observations_total counter",
		"hpmserve_observations_total 1",
		"hpmserve_ticks_total 1",
		"hpmserve_observe_seconds_count 1",
		"# TYPE hpmserve_operational_computers gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}

// syncBuffer lets the daemon goroutine write stdout while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// bootDaemon runs the real daemon loop on an ephemeral port with the given
// extra flags and returns its base URL, its stdout, and a stop function
// that cancels the daemon's context and returns run's error.
func bootDaemon(t *testing.T, args ...string) (base string, out *syncBuffer, stop func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	out = &syncBuffer{}
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, append([]string{"-addr", "127.0.0.1:0", "-shards", "2"}, args...), out)
	}()
	stop = func() error {
		cancel()
		return <-errc
	}
	const marker = "listening on "
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		select {
		case err := <-errc:
			t.Fatalf("daemon exited before listening: %v; output: %q", err, out.String())
		default:
		}
		if s := out.String(); strings.Contains(s, marker) {
			return "http://" + strings.Fields(s[strings.Index(s, marker)+len(marker):])[0], out, stop
		}
	}
	t.Fatalf("daemon never reported its address; output: %q", out.String())
	return "", nil, nil
}

// httpDo issues one request against a live daemon and returns the body,
// failing the test unless the status matches.
func httpDo(t *testing.T, method, url, body string, wantStatus int) string {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s = %d, want %d (body %s)", method, url, resp.StatusCode, wantStatus, data)
	}
	return string(data)
}

// webTenant is createFastTenant's request for id "web", for live daemons.
const webTenant = `{"id":"web","moduleSize":2,"fast":true,"binSeconds":30}`

// TestRunServesAndSnapshotsOnShutdown drives the real daemon loop: boot
// on an ephemeral port, create a tenant over HTTP, shut down via context
// cancellation, and verify the journal was flushed and recovers on reboot.
func TestRunServesAndSnapshotsOnShutdown(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "fleet.log")
	base, out, stop := bootDaemon(t, "-journal", logPath, "-journal-interval", "1h")
	httpDo(t, http.MethodPost, base+"/v1/tenants", webTenant, http.StatusCreated)
	if body := httpDo(t, http.MethodPost, base+"/v1/tenants/web/observe", `{"count":500}`, http.StatusOK); !strings.Contains(body, `"freqHz"`) {
		t.Fatalf("observe returned no decision: %s", body)
	}
	if err := stop(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "journal flushed") {
		t.Fatalf("no shutdown journal flush; output: %q", out.String())
	}

	// Reboot: the daemon recovers the tenant from the journal.
	base, _, stop = bootDaemon(t, "-journal", logPath)
	if body := httpDo(t, http.MethodGet, base+"/v1/tenants/web/state", "", http.StatusOK); !strings.Contains(body, `"bins":1`) {
		t.Fatalf("recovered state = %s", body)
	}
	if err := stop(); err != nil {
		t.Fatalf("run (second boot): %v", err)
	}
}

// TestRunJournalAdoptsSnapshotFile pins the migration off the removed
// -snapshot flag: a file of Fleet.Snapshot bytes is already a valid frame
// log, so the daemon booted with -journal on that path restores the
// tenant with its history and decides the next bin bit-identically to the
// fleet that wrote the file.
func TestRunJournalAdoptsSnapshotFile(t *testing.T) {
	h, f := testHandler(t)
	createFastTenant(t, h, "web")
	for _, c := range []string{`{"count":500}`, `{"count":650}`} {
		doJSON(t, h, http.MethodPost, "/v1/tenants/web/observe", c, http.StatusOK)
	}
	var snap bytes.Buffer
	if err := f.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.snap")
	if err := os.WriteFile(path, snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/tenants/web/observe", strings.NewReader(`{"count":580}`))
	want := httptest.NewRecorder()
	h.ServeHTTP(want, req)

	base, out, stop := bootDaemon(t, "-journal", path)
	if !strings.Contains(out.String(), "1 tenants recovered") {
		t.Errorf("recovery not reported; output: %q", out.String())
	}
	if body := httpDo(t, http.MethodGet, base+"/v1/tenants/web/state", "", http.StatusOK); !strings.Contains(body, `"bins":2`) {
		t.Fatalf("restored state = %s", body)
	}
	if got := httpDo(t, http.MethodPost, base+"/v1/tenants/web/observe", `{"count":580}`, http.StatusOK); got != want.Body.String() {
		t.Errorf("next decision after migration differs:\n got %s\nwant %s", got, want.Body.String())
	}
	if err := stop(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestDrainAndFlushPastDeadline is the graceful-stop durability pin: a
// stalled client holds its request open past the drain deadline, so
// Shutdown fails — and the journal must be flushed anyway, or a SIGTERM
// behind one slow client drops every observation acknowledged since the
// last periodic append.
func TestDrainAndFlushPastDeadline(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "fleet.log")
	f := hierctl.NewFleet(hierctl.FleetConfig{Shards: 2})
	t.Cleanup(f.Close)
	jnl, err := hierctl.OpenFleetJournal(f, logPath, hierctl.FleetJournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h := newServer(f, 0).routes()
	createFastTenant(t, h, "web")
	doJSON(t, h, http.MethodPost, "/v1/tenants/web/observe", `{"count":500}`, http.StatusOK)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	active := make(chan struct{})
	srv := &http.Server{Handler: h, ConnState: func(_ net.Conn, st http.ConnState) {
		if st == http.StateActive {
			close(active) // the one connection below, which never completes
		}
	}}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close() })

	// The stalled client: headers promise a body that never arrives, so its
	// handler blocks reading and the connection is never idle.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, "POST /v1/tenants/web/observe HTTP/1.1\r\nHost: x\r\nContent-Length: 64\r\n\r\n{\"count\":")
	<-active

	expired, cancel := context.WithCancel(context.Background())
	cancel() // the drain deadline has already passed
	persistDone := make(chan struct{})
	close(persistDone)
	if err := drainAndFlush(expired, srv, persistDone, jnl); !errors.Is(err, context.Canceled) {
		t.Fatalf("drainAndFlush = %v, want the drain's context error", err)
	}

	f2 := hierctl.NewFleet(hierctl.FleetConfig{Shards: 2})
	t.Cleanup(f2.Close)
	jnl2, err := hierctl.OpenFleetJournal(f2, logPath, hierctl.FleetJournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	st, err := f2.State("web")
	if err != nil || st.Bins != 1 {
		t.Fatalf("reopened journal: state %+v, err %v; want the acknowledged observation (1 bin)", st, err)
	}
}

// TestRunFlagValidation pins the daemon's flag checks, including that the
// removed full-snapshot persistence flags are now ordinary unknown flags.
func TestRunFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-journal-interval", "5s"},                   // cadence without a journal
		{"-journal-interval", "-5s", "-journal", "x"}, // negative cadence
		{"-telemetry-records", "-1"},
	} {
		if err := run(context.Background(), args, io.Discard); err == nil {
			t.Errorf("args %v: want error", args)
		}
	}
	// A ring size past the bound fails at start-up with the message a
	// tenant create (or a restored frame) asking for it gets.
	err := run(context.Background(), []string{"-telemetry-records", "1048577"}, io.Discard)
	if want := hierctl.CheckTelemetryRecords(1048577); err == nil || want == nil || !strings.Contains(err.Error(), want.Error()) {
		t.Errorf("-telemetry-records 1048577: got %v, want an error carrying %q", err, want)
	}
	for _, args := range [][]string{{"-snapshot", "x"}, {"-snapshot-interval", "5s"}} {
		err := run(context.Background(), args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("args %v: got %v, want an unknown-flag error", args, err)
		}
	}
}

func TestServerRejectsOversizedRequests(t *testing.T) {
	h, _ := testHandler(t)
	doJSON(t, h, http.MethodPost, "/v1/tenants",
		`{"id":"big","modules":100000}`, http.StatusBadRequest)
	doJSON(t, h, http.MethodPost, "/v1/tenants",
		`{"id":"big","moduleSize":100000}`, http.StatusBadRequest)
	doJSON(t, h, http.MethodPost, "/v1/tenants",
		`{"id":"ok","moduleSize":2,"fast":true}`, http.StatusCreated)
	doJSON(t, h, http.MethodPost, "/v1/tenants/ok/observe", `{"count":1e15}`, http.StatusBadRequest)
	doJSON(t, h, http.MethodPost, "/v1/tenants/ok/observe", `{"count":-5}`, http.StatusBadRequest)
	doJSON(t, h, http.MethodPost, "/v1/tenants/ok/observe", `{"count":100}`, http.StatusOK)
}

// TestServerModuleSizeCap pins the moduleSize bound at its edge: the
// largest accepted module creates, one computer more is the range 400.
func TestServerModuleSizeCap(t *testing.T) {
	h, _ := testHandler(t)
	created := doJSON(t, h, http.MethodPost, "/v1/tenants",
		fmt.Sprintf(`{"id":"edge","moduleSize":%d,"fast":true}`, maxModuleSize), http.StatusCreated)
	if created["computers"].(float64) != maxModuleSize {
		t.Errorf("moduleSize %d built %v computers", maxModuleSize, created["computers"])
	}
	rejected := doJSON(t, h, http.MethodPost, "/v1/tenants",
		fmt.Sprintf(`{"id":"over","moduleSize":%d,"fast":true}`, maxModuleSize+1), http.StatusBadRequest)
	want := fmt.Sprintf("moduleSize %d outside [1, %d]", maxModuleSize+1, maxModuleSize)
	if msg, _ := rejected["error"].(string); msg != want {
		t.Errorf("error %q, want %q", msg, want)
	}
}

// TestServerModulesCapL2Work pins the work of one L2 decision at the
// modules cap, which runs on the tenant's home shard with every sibling
// queued behind it: each module's 11 quanta are priced once per band
// sample, plus at most 3,003 near ties per sample, whatever the J̃ trees
// (the L2 summary record's explored count; deterministic, so the bound does
// not depend on the host).
func TestServerModulesCapL2Work(t *testing.T) {
	h, _ := testHandler(t)
	doJSON(t, h, http.MethodPost, "/v1/tenants",
		fmt.Sprintf(`{"id":"wide","modules":%d,"fast":true}`, maxModules), http.StatusCreated)
	doJSON(t, h, http.MethodPost, "/v1/tenants/wide/observe", `{"count":9000}`, http.StatusOK)
	resp := doJSON(t, h, http.MethodGet, "/v1/tenants/wide/telemetry", "", http.StatusOK)
	const bound = maxModules*11*3 + 3*3003
	summaries := 0
	for _, raw := range resp["records"].([]any) {
		rec := raw.(map[string]any)
		if rec["level"] != "l2" || rec["module"].(float64) != -1 {
			continue
		}
		summaries++
		if explored := rec["explored"].(float64); explored < maxModules*11 || explored > bound {
			t.Errorf("L2 decision explored %v states, want within [%d, %d]", explored, maxModules*11, bound)
		}
	}
	if summaries != 1 {
		t.Fatalf("%d L2 summary records after one bin, want 1", summaries)
	}
}

func TestServerRejectsBadTenantIDs(t *testing.T) {
	h, _ := testHandler(t)
	for _, id := range []string{"a/b", "a b", "a\tb"} {
		body, _ := json.Marshal(map[string]any{"id": id, "moduleSize": 2, "fast": true})
		doJSON(t, h, http.MethodPost, "/v1/tenants", string(body), http.StatusBadRequest)
	}
	doJSON(t, h, http.MethodPost, "/v1/tenants",
		`{"id":"`+strings.Repeat("x", 200)+`","moduleSize":2,"fast":true}`, http.StatusBadRequest)
}

func TestServerRejectsBadBinSeconds(t *testing.T) {
	h, _ := testHandler(t)
	doJSON(t, h, http.MethodPost, "/v1/tenants",
		`{"id":"c","moduleSize":2,"fast":true,"binSeconds":3e9}`, http.StatusBadRequest)
	doJSON(t, h, http.MethodPost, "/v1/tenants",
		`{"id":"c","moduleSize":2,"fast":true,"binSeconds":-30}`, http.StatusBadRequest)
	doJSON(t, h, http.MethodPost, "/v1/tenants",
		`{"id":"c","moduleSize":2,"fast":true,"binSeconds":0}`, http.StatusBadRequest)
}

// TestServerRejectsBadClusterShapes pins the createTenant validation of
// non-positive and conflicting cluster-shape fields: negative modules and
// non-positive moduleSize must 400 instead of reaching the cluster
// constructors, and a non-default moduleSize alongside modules > 1 — which
// used to be silently ignored — is now an explicit conflict.
func TestServerRejectsBadClusterShapes(t *testing.T) {
	h, _ := testHandler(t)
	for _, body := range []string{
		`{"id":"bad","modules":-1}`,
		`{"id":"bad","moduleSize":0}`,
		`{"id":"bad","moduleSize":-4}`,
		`{"id":"bad","modules":-100000}`,
		`{"id":"bad","modules":2,"moduleSize":6}`,
		`{"id":"bad","modules":3,"moduleSize":1}`,
	} {
		resp := doJSON(t, h, http.MethodPost, "/v1/tenants", body, http.StatusBadRequest)
		if msg, _ := resp["error"].(string); msg == "" {
			t.Errorf("%s: want a JSON error payload, got %v", body, resp)
		}
	}
	// An explicit default moduleSize alongside modules is not a conflict,
	// and modules == 1 still honours moduleSize.
	doJSON(t, h, http.MethodPost, "/v1/tenants",
		`{"id":"one","modules":1,"moduleSize":2,"fast":true}`, http.StatusCreated)
	st := doJSON(t, h, http.MethodGet, "/v1/tenants/one", "", http.StatusOK)
	if n, _ := st["computers"].(float64); n != 2 {
		t.Errorf("modules=1 moduleSize=2 built %v computers, want 2", st["computers"])
	}
}

// TestServerScenarioSeeding exercises tenant creation from a named
// scenario: the tenant adopts the scenario's bin cadence, the requested
// prefix is fed at creation, and further observations continue the bin
// sequence.
func TestServerScenarioSeeding(t *testing.T) {
	h, _ := testHandler(t)
	created := doJSON(t, h, http.MethodPost, "/v1/tenants",
		`{"id":"smoke","moduleSize":2,"fast":true,"scenario":"flashcrowd","scenarioBins":4}`, http.StatusCreated)
	if created["scenario"] != "flashcrowd" {
		t.Errorf("scenario = %v", created["scenario"])
	}
	if created["scenarioBinsFed"].(float64) != 4 {
		t.Errorf("scenarioBinsFed = %v, want 4", created["scenarioBinsFed"])
	}
	if created["binSeconds"].(float64) != 30 {
		t.Errorf("binSeconds = %v, want the scenario trace's 30", created["binSeconds"])
	}
	st := doJSON(t, h, http.MethodGet, "/v1/tenants/smoke/state", "", http.StatusOK)
	if st["bins"].(float64) != 4 {
		t.Errorf("bins = %v, want 4 after seeding", st["bins"])
	}
	// The next observation continues the sequence.
	dec := doJSON(t, h, http.MethodPost, "/v1/tenants/smoke/observe", `{"count":500}`, http.StatusOK)
	if dec["bin"].(float64) != 4 {
		t.Errorf("bin = %v, want 4", dec["bin"])
	}
}

// TestServerScenarioAdoptsCadence pins that a scenario with a non-default
// bin width (wc98: 120 s) overrides the decode default.
func TestServerScenarioAdoptsCadence(t *testing.T) {
	h, _ := testHandler(t)
	created := doJSON(t, h, http.MethodPost, "/v1/tenants",
		`{"id":"cup","moduleSize":2,"fast":true,"scenario":"wc98"}`, http.StatusCreated)
	if created["binSeconds"].(float64) != 120 {
		t.Errorf("binSeconds = %v, want 120 from the wc98 trace", created["binSeconds"])
	}
}

// TestServerRejectsUnknownScenario pins the bugfix contract: unknown
// scenario names 400 with the registered list, and scenarioBins without a
// scenario is a conflict.
func TestServerRejectsUnknownScenario(t *testing.T) {
	h, _ := testHandler(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/tenants",
		strings.NewReader(`{"id":"x","moduleSize":2,"fast":true,"scenario":"nope"}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", w.Code)
	}
	body := w.Body.String()
	for _, frag := range []string{"unknown scenario", "registered:", "flashcrowd"} {
		if !strings.Contains(body, frag) {
			t.Errorf("error body missing %q: %s", frag, body)
		}
	}
	doJSON(t, h, http.MethodPost, "/v1/tenants",
		`{"id":"x","moduleSize":2,"scenarioBins":4}`, http.StatusBadRequest)
	doJSON(t, h, http.MethodPost, "/v1/tenants",
		`{"id":"x","moduleSize":2,"scenario":"flashcrowd","scenarioBins":100000}`, http.StatusBadRequest)
}

// TestServerRejectsParameterizedScenario pins the security contract:
// tracefile:<path> must not be reachable through the API (it would let
// clients make the daemon read arbitrary host files).
func TestServerRejectsParameterizedScenario(t *testing.T) {
	h, _ := testHandler(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/tenants",
		strings.NewReader(`{"id":"x","moduleSize":2,"fast":true,"scenario":"tracefile:/etc/passwd"}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", w.Code)
	}
	if !strings.Contains(w.Body.String(), "not available via the API") {
		t.Errorf("unexpected error body: %s", w.Body.String())
	}
	// The bare name is rejected too (arg hint from the lookup).
	req = httptest.NewRequest(http.MethodPost, "/v1/tenants",
		strings.NewReader(`{"id":"x","moduleSize":2,"fast":true,"scenario":"tracefile"}`))
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bare tracefile: status %d, want 400", w.Code)
	}
}

// TestServerArtifactSharing: tenants of one shape cost one offline learn
// per distinct computer hardware (two in a moduleSize-2 tenant). /metrics
// shows it — learns stay put while shares grow, two artifacts held however
// many tenants, none once the last is deleted. The journal stores no
// artifact (-journal-verify counts a segment start and a base per tenant,
// nothing else), so a restart learns each one once again, as the first
// creates did.
func TestServerArtifactSharing(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "fleet.log")
	base, _, stop := bootDaemon(t, "-journal", logPath)
	scrape := func(want ...string) {
		t.Helper()
		body := httpDo(t, http.MethodGet, base+"/metrics", "", http.StatusOK)
		for _, w := range want {
			if !strings.Contains(body, w+"\n") {
				t.Errorf("metrics missing %q", w)
			}
		}
	}
	for i, id := range []string{"a", "b", "c"} {
		httpDo(t, http.MethodPost, base+"/v1/tenants",
			fmt.Sprintf(`{"id":%q,"moduleSize":2,"fast":true,"seed":%d}`, id, i+1), http.StatusCreated)
		scrape(
			`hpmserve_artifacts{kind="gmap"} 2`,
			`hpmserve_artifact_learns_total{kind="gmap"} 2`,
			fmt.Sprintf(`hpmserve_artifact_shares_total{kind="gmap"} %d`, 2*i),
			`hpmserve_artifacts{kind="tree"} 0`,
		)
	}
	if err := stop(); err != nil {
		t.Fatalf("run: %v", err)
	}
	var report bytes.Buffer
	if err := run(context.Background(), []string{"-journal-verify", logPath}, &report); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), ": 4 frames (1 segment, 3 base, 0 delta, 0 remove), 3 tenants") {
		t.Errorf("journal of three same-shape tenants: %s", report.String())
	}

	base, _, stop = bootDaemon(t, "-journal", logPath)
	// Restored as created: two learns serve all three.
	scrape(
		`hpmserve_artifacts{kind="gmap"} 2`,
		`hpmserve_artifact_learns_total{kind="gmap"} 2`,
		`hpmserve_artifact_shares_total{kind="gmap"} 4`,
	)
	for _, id := range []string{"a", "b", "c"} {
		httpDo(t, http.MethodDelete, base+"/v1/tenants/"+id, "", http.StatusOK)
	}
	scrape(`hpmserve_artifacts{kind="gmap"} 0`)
	if err := stop(); err != nil {
		t.Fatalf("run (second boot): %v", err)
	}
}

// TestTenantRoutes pins handleTenant's routing table: for each path under
// /v1/tenants/ and each method, the status it answers. Only {id} (GET,
// DELETE), {id}/state and {id}/telemetry (GET) and {id}/observe (POST)
// route; an empty id, an empty or unknown sub-resource, a deeper path or
// another method is a 404, as is every route for an unknown tenant. The
// rows run in order: the DELETEs come last, the first of them closing a.
func TestTenantRoutes(t *testing.T) {
	h, f := testHandler(t)
	createFastTenant(t, h, "a")
	const observe = `{"count":100}`
	for _, c := range []struct {
		method, path, body string
		want               int
	}{
		{http.MethodPost, "/v1/tenants/a/observe", observe, http.StatusOK},
		{http.MethodGet, "/v1/tenants/a", "", http.StatusOK},
		{http.MethodGet, "/v1/tenants/a/state", "", http.StatusOK},
		{http.MethodGet, "/v1/tenants/a/telemetry", "", http.StatusOK},
		{http.MethodGet, "/v1/tenants/a/", "", http.StatusNotFound},
		{http.MethodPost, "/v1/tenants/a/", observe, http.StatusNotFound},
		{http.MethodDelete, "/v1/tenants/a/", "", http.StatusNotFound},
		{http.MethodGet, "/v1/tenants/", "", http.StatusNotFound},
		{http.MethodPost, "/v1/tenants//observe", observe, http.StatusMovedPermanently},
		{http.MethodPost, "/v1/tenants/a/observe/x", observe, http.StatusNotFound},
		{http.MethodPost, "/v1/tenants/a/observe/", observe, http.StatusNotFound},
		{http.MethodGet, "/v1/tenants/a/state/x", "", http.StatusNotFound},
		{http.MethodGet, "/v1/tenants/a/observe", "", http.StatusNotFound},
		{http.MethodPut, "/v1/tenants/a/observe", observe, http.StatusNotFound},
		{http.MethodPost, "/v1/tenants/a/state", observe, http.StatusNotFound},
		{http.MethodPost, "/v1/tenants/a/telemetry", observe, http.StatusNotFound},
		{http.MethodPost, "/v1/tenants/a", observe, http.StatusNotFound},
		{http.MethodPut, "/v1/tenants/a", observe, http.StatusNotFound},
		{http.MethodPost, "/v1/tenants/a/Observe", observe, http.StatusNotFound},
		{http.MethodPost, "/v1/tenants/a/unknown", observe, http.StatusNotFound},
		{http.MethodDelete, "/v1/tenants/a/state", "", http.StatusNotFound},
		{http.MethodDelete, "/v1/tenants/a/telemetry", "", http.StatusNotFound},
		{http.MethodDelete, "/v1/tenants/a/observe", "", http.StatusNotFound},
		{http.MethodPost, "/v1/tenants/b/observe", observe, http.StatusNotFound},
		{http.MethodGet, "/v1/tenants/b", "", http.StatusNotFound},
		{http.MethodGet, "/v1/tenants/b/state", "", http.StatusNotFound},
		{http.MethodGet, "/v1/tenants/b/telemetry", "", http.StatusNotFound},
		{http.MethodDelete, "/v1/tenants/b", "", http.StatusNotFound},
		{http.MethodDelete, "/v1/tenants/a", "", http.StatusOK},
		{http.MethodDelete, "/v1/tenants/a", "", http.StatusNotFound},
		{http.MethodGet, "/v1/tenants/a", "", http.StatusNotFound},
		{http.MethodPost, "/v1/tenants/a/observe", observe, http.StatusNotFound},
	} {
		var body io.Reader
		if c.body != "" {
			body = strings.NewReader(c.body)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(c.method, c.path, body))
		if w.Code != c.want {
			t.Errorf("%s %s = %d, want %d (body %.120s)", c.method, c.path, w.Code, c.want, w.Body.String())
		}
	}

	// The mux redirects a path with an empty segment to its cleaned form;
	// reached without the mux, the handler refuses the empty id itself —
	// even with a tenant named like the segment after it.
	createFastTenant(t, h, "observe")
	sv := newServer(f, 0)
	for _, path := range []string{"/v1/tenants//observe", "/v1/tenants/", "/v1/tenants//"} {
		for _, method := range []string{http.MethodGet, http.MethodPost, http.MethodDelete} {
			w := httptest.NewRecorder()
			sv.handleTenant(w, httptest.NewRequest(method, path, strings.NewReader(observe)))
			if w.Code != http.StatusNotFound {
				t.Errorf("handleTenant %s %s = %d, want 404", method, path, w.Code)
			}
		}
	}
}
