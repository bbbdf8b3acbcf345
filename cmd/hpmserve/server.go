package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"hierctl"
	"hierctl/internal/metrics"
)

// server wires the fleet to the HTTP/JSON API:
//
//	POST   /v1/tenants                create a tenant hierarchy
//	GET    /v1/tenants                list tenant states
//	POST   /v1/observe:batch          feed many bins across many tenants
//	POST   /v1/tenants/{id}/observe   feed one arrival bin, get decisions
//	GET    /v1/tenants/{id}/state     progress and last decision
//	GET    /v1/tenants/{id}/telemetry recent flight-recorder window
//	DELETE /v1/tenants/{id}           finish the tenant, return its record
//	GET    /metrics                   Prometheus text format
//	GET    /healthz                   liveness probe
type server struct {
	fleet *hierctl.Fleet
	start time.Time
	// journal, when set, is the incremental snapshot journal whose size
	// and compaction counters surface on /metrics.
	journal *hierctl.FleetJournal
	// batch performs the fan-out for /v1/observe:batch; defaults to the
	// fleet's ObserveBatchInto, overridable so tests can force deterministic
	// queue-full responses.
	batch func(dst []hierctl.BatchResult, entries []hierctl.BatchEntry, decisions bool) ([]hierctl.BatchResult, error)
	// observeInto performs the single-bin /observe step; defaults to the
	// fleet's ObserveInto, overridable so tests can stub the fleet out.
	observeInto func(id string, count float64, dst *hierctl.BinDecision) error
	// scratch pools the /v1/observe:batch request state (*batchScratch) and
	// observes the single-bin /observe state (*observeScratch).
	scratch, observes sync.Pool
	// telemetryRecords sizes each new tenant's flight recorder (0 turns
	// recording off and empties the telemetry endpoint; /metrics does not
	// read the recorders).
	telemetryRecords int
	// ready gates /readyz: false until startup recovery finished and again
	// once shutdown begins, so load balancers stop routing before the
	// listener closes. /healthz stays a pure liveness probe.
	ready atomic.Bool

	reg *metrics.Registry
	// Fleet-wide series, set from Fleet.Stats at scrape time.
	tenants, shards, uptime            metrics.Gauge
	observations, ticks, decideSeconds metrics.Counter
	snapshots, restores                metrics.Counter
	queueRejects                       metrics.Counter
	// Per-shard ingest backlog, sampled at scrape time.
	shardQueueDepth []metrics.Gauge
	// Batch ingest shape, observed per /v1/observe:batch call.
	batchEntries, batchBins metrics.FixedHistogram
	// Journal size/compaction series; stay zero when no journal runs.
	journalBase, journalTail metrics.Gauge
	journalCompactions       metrics.Counter
	// Fault-containment series: HTTP handler panics caught by the recovery
	// middleware, tenant panics recovered on the shards, and the current
	// quarantine census.
	handlerPanics      metrics.Counter
	tenantPanics       metrics.Counter
	quarantinedTenants metrics.Gauge
	// Shared learning artifacts, per kind (gmap/tree): how many the fleet
	// holds, how many it learned, how many constructions shared one.
	artifacts      *metrics.GaugeVec
	artifactLearns *metrics.CounterVec
	artifactShares *metrics.CounterVec
	// Wall-clock latency of the fleet call in single-bin /observe requests
	// (shard-queue wait + step), fleet-wide.
	observeLatency metrics.FixedHistogram
	// The decisions and tick counters the shards count as their tenants
	// step, set from the same Fleet.Stats at scrape time: fleet-wide
	// totals, the per-level decision histograms, and the worst tenants per
	// counter — at most hierctl.FleetTopK series each, so no family grows
	// with the tenant count. Per-tenant detail is served by
	// /v1/tenants/{id}/state and /telemetry.
	qosViolations, degradedTicks, staleObs metrics.Counter
	operational                            metrics.Gauge
	levelDecide, levelExplored             *metrics.HistogramVec
	qosTop, degradedTop, staleTop          *metrics.GaugeVec
	// renderMu makes one scrape's registry update and rendering atomic, so
	// racing scrapes cannot leave the union of two rankings in a top-K
	// family, and guards metricsScratch. It is never held across a call
	// into the fleet or a write to the client.
	renderMu sync.Mutex
	// metricsScratch is kept between scrapes; the scrape using it takes it
	// out, and one that overlaps it makes its own.
	metricsScratch *metricsScratch
}

// metricsScratch is what a /metrics scrape reuses: the queue depths and
// the render buffer.
type metricsScratch struct {
	depths []int
	body   []byte
}

// metricsContentType is the /metrics Content-Type header value, shared by
// every scrape instead of built per call.
var metricsContentType = []string{"text/plain; version=0.0.4"}

// jsonContentType is every JSON reply's Content-Type header value, shared
// the same way: Header().Set would build a one-element slice per reply.
var jsonContentType = []string{"application/json"}

func newServer(f *hierctl.Fleet, telemetryRecords int) *server {
	s := &server{
		fleet:            f,
		start:            time.Now(),
		telemetryRecords: telemetryRecords,
		reg:              metrics.NewRegistry(),
	}
	// Registration only fails on malformed names/labels, which would be a
	// programming error here — the must helpers keep wiring linear.
	mustCounter := func(name, help string, labels ...string) *metrics.CounterVec {
		c, err := s.reg.Counter(name, help, labels...)
		if err != nil {
			panic(err)
		}
		return c
	}
	mustGauge := func(name, help string, labels ...string) *metrics.GaugeVec {
		g, err := s.reg.Gauge(name, help, labels...)
		if err != nil {
			panic(err)
		}
		return g
	}
	mustHistogram := func(name, help string, bounds []float64, labels ...string) *metrics.HistogramVec {
		h, err := s.reg.Histogram(name, help, bounds, labels...)
		if err != nil {
			panic(err)
		}
		return h
	}
	s.tenants = mustGauge("hpmserve_tenants", "Active tenant hierarchies.").With()
	s.shards = mustGauge("hpmserve_shards", "Worker shards hosting tenants.").With()
	s.uptime = mustGauge("hpmserve_uptime_seconds", "Seconds since the daemon started.").With()
	s.observations = mustCounter("hpmserve_observations_total", "Observation bins ingested across tenants.").With()
	s.ticks = mustCounter("hpmserve_ticks_total", "T_L0 control periods stepped across tenants.").With()
	s.decideSeconds = mustCounter("hpmserve_decide_seconds_total", "Wall-clock seconds spent stepping tenants.").With()
	s.snapshots = mustCounter("hpmserve_snapshots_total", "Fleet snapshots written.").With()
	s.restores = mustCounter("hpmserve_restores_total", "Fleet snapshots restored.").With()
	s.queueRejects = mustCounter("hpmserve_queue_rejects_total",
		"Batch entries rejected because a shard's ingest queue was full.").With()
	shardQueueDepth := mustGauge("hpmserve_shard_queue_depth",
		"Jobs waiting in each shard's ingest queue at scrape time.", "shard")
	for i := range f.Stats().Shards {
		s.shardQueueDepth = append(s.shardQueueDepth, shardQueueDepth.With(strconv.Itoa(i))) //hpm:boundedlabel shard index, fixed at startup
	}
	s.batchEntries = mustHistogram("hpmserve_batch_entries",
		"Tenant entries per /v1/observe:batch call.",
		[]float64{1, 4, 16, 64, 256, 1024, 4096}).With()
	s.batchBins = mustHistogram("hpmserve_batch_bins",
		"Observation bins per /v1/observe:batch call.",
		[]float64{1, 8, 64, 512, 4096, 32768}).With()
	s.journalBase = mustGauge("hpmserve_journal_base_bytes",
		"Size of the journal's last full snapshot (0 when no journal runs).").With()
	s.journalTail = mustGauge("hpmserve_journal_tail_bytes",
		"Delta bytes appended to the journal since its last compaction.").With()
	s.journalCompactions = mustCounter("hpmserve_journal_compactions_total",
		"Full-snapshot rewrites of the journal.").With()
	s.handlerPanics = mustCounter("hpmserve_panics_total",
		"HTTP handler panics caught by the recovery middleware (each answered 500).").With()
	s.tenantPanics = mustCounter("hpmserve_tenant_panics_total",
		"Tenant controller panics recovered on the fleet's shards.").With()
	s.quarantinedTenants = mustGauge("hpmserve_quarantined_tenants",
		"Registered tenants currently quarantined after a panic.").With()
	s.artifacts = mustGauge("hpmserve_artifacts",
		"Distinct learned artifacts (abstraction maps g, module trees) held in memory, shared by every tenant of the same learning fingerprint.", "kind")
	s.artifactLearns = mustCounter("hpmserve_artifact_learns_total",
		"Offline learning passes run, one per fingerprint the fleet did not hold.", "kind")
	s.artifactShares = mustCounter("hpmserve_artifact_shares_total",
		"Tenant constructions served an artifact the fleet already held instead of learning it.", "kind")
	s.batch = f.ObserveBatchInto
	s.observeInto = f.ObserveInto
	s.observeLatency = mustHistogram("hpmserve_observe_seconds",
		"Wall-clock latency of the fleet call in single-bin /observe requests (shard-queue wait + step), across tenants.",
		[]float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10}).With()
	s.qosViolations = mustCounter("hpmserve_qos_violations_total",
		"Control periods whose interval mean response exceeded the target, across tenants.").With()
	s.degradedTicks = mustCounter("hpmserve_degraded_ticks_total",
		"Control periods decided through the deterministic fallback (decision budget exhausted or recovered controller panic), across tenants.").With()
	s.staleObs = mustCounter("hpmserve_stale_observations_total",
		"Module observations held at the last good value by the input sanitizer, across tenants.").With()
	s.operational = mustGauge("hpmserve_operational_computers",
		"Operational computers across tenants, as of each tenant's last decision.").With()
	s.levelDecide = mustHistogram("hpmserve_level_decide_seconds",
		"Controller decide latency, per hierarchy level.",
		hierctl.FleetTelemetryDecideBounds(), "level")
	s.levelExplored = mustHistogram("hpmserve_level_explored",
		"States explored per decision, per hierarchy level.",
		hierctl.FleetTelemetryExploredBounds(), "level")
	s.qosTop = mustGauge("hpmserve_qos_violations_top",
		"QoS-violating control periods of the tenants with the most (at most 8 series).", "tenant")
	s.degradedTop = mustGauge("hpmserve_degraded_ticks_top",
		"Fallback-decided control periods of the tenants with the most (at most 8 series).", "tenant")
	s.staleTop = mustGauge("hpmserve_stale_observations_top",
		"Held module observations of the tenants with the most (at most 8 series).", "tenant")
	return s
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/tenants", s.handleTenants)
	mux.HandleFunc("/v1/tenants/", s.handleTenant)
	mux.HandleFunc("/v1/observe:batch", s.handleObserveBatch)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return s.recoverPanics(mux)
}

// recoverPanics is the outermost middleware: a panicking handler answers
// 500 (when nothing was written yet) instead of killing the connection
// with an empty reply, and the daemon keeps serving. The counter makes
// the failure visible to scrapes even when the client swallowed the 500.
func (s *server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.handlerPanics.Inc()
				writeJSON(w, http.StatusInternalServerError, map[string]string{"error": fmt.Sprintf("internal error: %v", v)})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// createReq is the tenant-creation payload. Cluster shapes mirror the
// paper's presets: modules > 1 builds the §5.2 heterogeneous cluster of
// that many 4-computer modules; otherwise a single §4.3-style module of
// moduleSize computers.
type createReq struct {
	ID         string  `json:"id"`
	Modules    int     `json:"modules"`
	ModuleSize int     `json:"moduleSize"`
	Seed       int64   `json:"seed"`
	BinSeconds float64 `json:"binSeconds"`
	// Fast coarsens the offline learning grids — the same knob the CLIs
	// expose — so tenants come up in well under a second.
	Fast        bool      `json:"fast"`
	Calibration []float64 `json:"calibration"`
	// Scenario seeds the tenant from a registered workload scenario (see
	// hpmgen -list): the tenant adopts the scenario's service-time mix and
	// failure plan, its bin width is forced to the scenario trace's, the
	// Kalman calibration defaults to the trace prefix, and the first
	// ScenarioBins bins are fed through the hierarchy at creation — a
	// one-call smoke/load test of a fresh tenant.
	Scenario     string `json:"scenario"`
	ScenarioBins int    `json:"scenarioBins"`
}

type observeReq struct {
	Count float64 `json:"count"`
}

// Request-size guards: tenant creation runs the offline learning and an
// observation synthesizes count individual requests, so both must be
// bounded at the API edge or one call could pin or OOM the daemon.
const (
	// standardModuleSize is the paper's module shape: multi-module
	// clusters (modules > 1) are built from 4-computer modules, and it
	// doubles as the moduleSize decode default.
	standardModuleSize = 4

	// maxModules bounds the L2 decision, which runs on the tenant's home
	// shard with every sibling queued behind it. It prices each available
	// module's 11 quanta once per band sample: ≤ 64·11·3 = 2,112 states at
	// the cap (the L2 summary record's explored count, deterministic). A
	// fresh 64-module `fast` tenant's first L2 decision explores 704 in
	// tens of µs and its whole bin takes ≈ 5 ms on a 2-vCPU box; README
	// has the table.
	maxModules = 64
	// maxModuleSize bounds the work of one L1 decision, which runs on the
	// tenant's home shard with every sibling tenant queued behind it. A
	// decision probes each (queue, arrival-rate) cell of a computer's map
	// at most once: at most 21·21 = 441 probes a computer (11·11 on the
	// fast grid; the L1 summary record's explored count, deterministic,
	// so the cap does not depend on the host), so the
	// 2×10⁵-probe criterion would admit 453 computers and the one-uint64
	// on/off mask 64. The binding limit is the flight recorder: the
	// summary record carries the mask as a varint, and 21 computers is the
	// widest whose record fits the 24-byte writer maximum
	// (internal/obs TestRecordEncodedSize). README "Online control plane"
	// has the measured table.
	maxModuleSize  = 21
	maxBinSeconds  = 3600 // one bin = at most 120 T_L0 control periods
	maxCalibration = 1 << 16
	maxBodyBytes   = 1 << 20
	maxIDLen       = 128
	// maxScenarioBins bounds the scenario bins fed synchronously at
	// creation — each bin synthesizes its full request batch, so the cap
	// keeps a create call from pinning the daemon.
	maxScenarioBins = 512

	// Batch ingest bounds: one /v1/observe:batch call may carry many
	// tenants' bins, so it gets a larger body allowance but hard caps on
	// fan-out width and total simulated work.
	maxBatchEntries   = 4096
	maxBatchBins      = 65536
	maxBatchBodyBytes = 8 << 20
)

// validTenantID rejects ids that would be unroutable in the path-based
// API or awkward as metric labels.
func validTenantID(id string) error {
	if id == "" {
		return fmt.Errorf("missing tenant id")
	}
	if len(id) > maxIDLen {
		return fmt.Errorf("tenant id longer than %d bytes", maxIDLen)
	}
	for _, r := range id {
		if r == '/' || r <= ' ' || r == 0x7f {
			return fmt.Errorf("tenant id must not contain %q", r)
		}
	}
	return nil
}

type recordDTO struct {
	Completed     int64   `json:"completed"`
	Dropped       int64   `json:"dropped"`
	Energy        float64 `json:"energy"`
	Switches      int     `json:"switches"`
	MeanResponse  float64 `json:"meanResponse"`
	ResponseP95   float64 `json:"responseP95"`
	ViolationFrac float64 `json:"violationFrac"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, hierctl.ErrTenantNotFound):
		status = http.StatusNotFound
	case errors.Is(err, hierctl.ErrTenantExists):
		status = http.StatusConflict
	case errors.Is(err, hierctl.ErrFleetClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, hierctl.ErrTenantQuarantined):
		// The tenant exists but refuses stepping until closed: a conflict
		// with its state, not a client mistake or a missing resource.
		status = http.StatusConflict
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// decodeBody reads the whole request body (at most limit bytes) into buf
// and unmarshals it into v. The body must be exactly one JSON value:
// anything but whitespace after it is an error, never silently dropped.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, buf *bytes.Buffer, v any) error {
	if err := readBody(w, r, limit, buf); err != nil {
		return err
	}
	if err := json.Unmarshal(buf.Bytes(), v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

// readBody reads the whole request body, at most limit bytes, into buf. A
// body that declares a length within the limit is read as it is: net/http
// already ends it there. One of unknown length, or declaring more, goes
// through http.MaxBytesReader, which refuses the byte past the limit.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, buf *bytes.Buffer) error {
	buf.Reset()
	body := r.Body
	if n := r.ContentLength; n >= 0 && n <= limit {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	} else {
		body = http.MaxBytesReader(w, body, limit)
	}
	if _, err := buf.ReadFrom(body); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

// maxPooledBodyBytes bounds the observe body buffers kept for reuse; a
// larger one is left to the collector.
const maxPooledBodyBytes = 64 << 10

// handleTenants serves the collection: POST create, GET list.
func (s *server) handleTenants(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.createTenant(w, r)
	case http.MethodGet:
		states := s.fleet.States()
		if states == nil {
			states = []hierctl.TenantState{} // an empty fleet lists as [], not null
		}
		writeJSON(w, http.StatusOK, map[string]any{"tenants": states})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *server) createTenant(w http.ResponseWriter, r *http.Request) {
	req := createReq{ModuleSize: standardModuleSize, Seed: 1, BinSeconds: 30}
	var body bytes.Buffer
	if err := decodeBody(w, r, maxBodyBytes, &body, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := validTenantID(req.ID); err != nil {
		writeError(w, err)
		return
	}
	// Cluster-shape validation: both bounds matter — oversized requests
	// would pin the daemon in offline learning, and non-positive values
	// must not leak into the cluster constructors. modules is optional
	// (0 = single-module cluster of moduleSize computers); moduleSize
	// only parameterizes that single-module shape, so any non-default
	// value alongside modules > 1 is a conflict, not silently ignored.
	if req.Modules < 0 || req.Modules > maxModules {
		writeError(w, fmt.Errorf("modules %d outside [0, %d]", req.Modules, maxModules))
		return
	}
	if req.ModuleSize < 1 || req.ModuleSize > maxModuleSize {
		writeError(w, fmt.Errorf("moduleSize %d outside [1, %d]", req.ModuleSize, maxModuleSize))
		return
	}
	if req.Modules > 1 && req.ModuleSize != standardModuleSize {
		writeError(w, fmt.Errorf("moduleSize %d conflicts with modules %d: multi-module clusters are built from standard %d-computer modules; omit moduleSize (or leave it %d)", req.ModuleSize, req.Modules, standardModuleSize, standardModuleSize))
		return
	}
	if len(req.Calibration) > maxCalibration {
		writeError(w, fmt.Errorf("calibration longer than %d bins", maxCalibration))
		return
	}
	if !(req.BinSeconds > 0) || req.BinSeconds > maxBinSeconds { // also rejects NaN
		writeError(w, fmt.Errorf("binSeconds %v outside (0, %d]", req.BinSeconds, maxBinSeconds))
		return
	}
	if req.ScenarioBins < 0 || req.ScenarioBins > maxScenarioBins {
		writeError(w, fmt.Errorf("scenarioBins %d outside [0, %d]", req.ScenarioBins, maxScenarioBins))
		return
	}
	if req.Scenario == "" && req.ScenarioBins > 0 {
		writeError(w, fmt.Errorf("scenarioBins %d without a scenario; name one (see hpmgen -list)", req.ScenarioBins))
		return
	}
	var spec hierctl.ClusterSpec
	var err error
	switch {
	case req.Modules > 1:
		spec, err = hierctl.StandardCluster(req.Modules)
	case req.ModuleSize == standardModuleSize:
		spec, err = hierctl.StandardModuleCluster()
	default:
		spec, err = hierctl.ScaledModuleCluster(req.ModuleSize)
	}
	if err != nil {
		writeError(w, err)
		return
	}

	// Scenario seeding: adopt the scenario's store mix and failure plan,
	// force the bin cadence to the trace's, and default the calibration
	// to the trace prefix. Unknown names 400 with the registered list
	// (the lookup error carries it).
	storeCfg := hierctl.DefaultStoreConfig()
	calibration := req.Calibration
	binSeconds := req.BinSeconds
	var failures []hierctl.FailureEvent
	var trace *hierctl.Series
	if req.Scenario != "" {
		sc, err := hierctl.LookupScenario(req.Scenario)
		if err != nil {
			writeError(w, err)
			return
		}
		// Parameterized scenarios (tracefile:<path>) would let any client
		// make the daemon read — and echo parse errors from — arbitrary
		// host files; only parameter-free scenarios are served.
		if sc.NeedsArg {
			writeError(w, fmt.Errorf("scenario %q is not available via the API (recorded traces must be registered server-side)", req.Scenario))
			return
		}
		trace, err = sc.Trace(req.Seed)
		if err != nil {
			writeError(w, err)
			return
		}
		sc.ScaleToCluster(trace, spec.Computers())
		storeCfg = sc.StoreConfig()
		failures = sc.FailurePlan(trace)
		binSeconds = trace.Step
		// Recorded traces can carry any cadence; the API bound applies to
		// them like to explicit binSeconds.
		if !(binSeconds > 0) || binSeconds > maxBinSeconds {
			writeError(w, fmt.Errorf("scenario bin width %v outside (0, %d]", binSeconds, maxBinSeconds))
			return
		}
		if len(calibration) == 0 {
			calibration = trace.Values[:min(trace.Len(), 64)]
		}
	}

	cfg := hierctl.ExperimentOptions{Seed: req.Seed, Fast: req.Fast}.Config()
	learnStart := time.Now()
	if err := s.fleet.CreateTenant(req.ID, hierctl.TenantConfig{
		Spec:             spec,
		Core:             cfg,
		Store:            storeCfg,
		StoreSeed:        req.Seed,
		BinSeconds:       binSeconds,
		Calibration:      calibration,
		Failures:         failures,
		TelemetryRecords: s.telemetryRecords,
	}); err != nil {
		writeError(w, err)
		return
	}
	learnSeconds := time.Since(learnStart).Seconds()

	// Feed the requested scenario prefix through the hierarchy. A feed
	// error after creation is reported but leaves the tenant up with
	// whatever bins it absorbed.
	binsFed := 0
	if trace != nil && req.ScenarioBins > 0 {
		n := min(req.ScenarioBins, trace.Len())
		for i := 0; i < n; i++ {
			if _, err := s.fleet.Observe(req.ID, trace.Values[i]); err != nil {
				writeError(w, fmt.Errorf("seeding bin %d: %w", i, err))
				return
			}
			binsFed++
		}
	}

	resp := map[string]any{
		"id":           req.ID,
		"computers":    spec.Computers(),
		"modules":      len(spec.Modules),
		"binSeconds":   binSeconds,
		"learnSeconds": learnSeconds,
	}
	if req.Scenario != "" {
		resp["scenario"] = req.Scenario
		resp["scenarioBinsFed"] = binsFed
	}
	writeJSON(w, http.StatusCreated, resp)
}

// batchReq is the /v1/observe:batch payload: per-tenant runs of arrival
// bins, applied in entry order (entries naming the same tenant apply
// consecutively in the order given). decisions=true echoes each entry's
// last control decision back — off by default, and then no decision is
// even built, which keeps 10k-tenant fan-outs cheap and their responses
// small. The entries are the fleet's own type: they go to the fan-out as
// decoded.
type batchReq struct {
	Entries   []hierctl.BatchEntry `json:"entries"`
	Decisions bool                 `json:"decisions"`
}

type batchEntryResp struct {
	Tenant string `json:"tenant"`
	// Applied counts the entry's bins actually ingested; on a per-entry
	// error it reports how far the entry got before stopping.
	Applied      int                  `json:"applied"`
	Error        string               `json:"error,omitempty"`
	LastDecision *hierctl.BinDecision `json:"lastDecision,omitempty"`
}

type batchResp struct {
	Applied  int              `json:"applied"`
	Rejected int              `json:"rejected"`
	Results  []batchEntryResp `json:"results"`
}

// batchScratch is everything one in-flight /v1/observe:batch request
// needs, kept from call to call so a batch costs heap per call, not per
// entry: the body bytes, the decode destination (the entries and each
// entry's Counts backing array), the fleet's results and the reply rows.
type batchScratch struct {
	body    bytes.Buffer
	req     batchReq
	results []hierctl.BatchResult
	resp    batchResp
}

// maxPooledScratchBytes bounds what a pooled batchScratch may retain. It
// keeps a full-width batch of short entries (4096 tenants, a bin or two
// each) and drops the scratch of a maximal one (65536 bins), so an idle
// daemon's memory does not ratchet up to its largest request.
const maxPooledScratchBytes = 1 << 20

func (s *server) getScratch() *batchScratch {
	if sc, _ := s.scratch.Get().(*batchScratch); sc != nil {
		return sc
	}
	return new(batchScratch)
}

// putScratch recycles sc and pools it when it is still small enough.
func (s *server) putScratch(sc *batchScratch) {
	if sc.recycle() <= maxPooledScratchBytes {
		s.scratch.Put(sc)
	}
}

// recycle clears the scratch for its next request and returns the bytes
// it retains. json.Unmarshal decodes into what the destination already
// holds — an omitted field keeps its old value, and a slice element past
// the new length is stale until something overwrites it — so every entry
// up to the slice's capacity and every count up to each Counts' capacity
// goes back to zero: a reused scratch decodes every body exactly as a
// fresh one does. Results and rows drop the pointers they hold.
func (sc *batchScratch) recycle() int {
	entries := sc.req.Entries[:cap(sc.req.Entries)]
	retained := sc.body.Cap() + cap(entries)*int(unsafe.Sizeof(hierctl.BatchEntry{}))
	for i := range entries {
		counts := entries[i].Counts[:cap(entries[i].Counts)]
		clear(counts)
		entries[i] = hierctl.BatchEntry{Counts: counts[:0]}
		retained += 8 * cap(counts)
	}
	sc.req = batchReq{Entries: entries[:0]}
	// Results and rows are only ever appended to, so nothing past their
	// lengths is dirty.
	clear(sc.results)
	sc.results = sc.results[:0]
	clear(sc.resp.Results)
	sc.resp = batchResp{Results: sc.resp.Results[:0]}
	return retained + cap(sc.results)*int(unsafe.Sizeof(hierctl.BatchResult{})) + cap(sc.resp.Results)*int(unsafe.Sizeof(batchEntryResp{}))
}

// handleObserveBatch ingests many bins across many tenants in one
// round-trip. Validation is all-or-nothing: a malformed request (bad id,
// non-finite or oversized count, too many entries/bins) 400s before any
// bin is applied. Per-entry failures after that — an unknown tenant in
// the middle of the batch — surface as entry-level errors in a 200 while
// the other entries' bins stand. A full shard ingest queue turns the
// response into 429 with Retry-After so clients back off and resend the
// rejected entries (per-tenant ordering is preserved: once one entry for
// a tenant is rejected, later entries for it in the same call are too).
func (s *server) handleObserveBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	sc := s.getScratch()
	if s.observeBatch(w, r, sc) {
		s.putScratch(sc)
	}
}

// observeBatch serves one batch request out of sc and reports whether sc
// may be used again: not once the fleet closed under the call, when an
// abandoned shard job may still be reading the decoded counts. The body is
// decoded by parseBatch when it has the compact shape clients send, and by
// json.Unmarshal otherwise.
func (s *server) observeBatch(w http.ResponseWriter, r *http.Request, sc *batchScratch) (reusable bool) {
	if err := readBody(w, r, maxBatchBodyBytes, &sc.body); err != nil {
		writeError(w, err)
		return true
	}
	if !parseBatch(sc.body.Bytes(), &sc.req, s.fleet) {
		sc.recycle() // the fast path may have written part of the body
		if err := json.Unmarshal(sc.body.Bytes(), &sc.req); err != nil {
			writeError(w, fmt.Errorf("decode request: %w", err))
			return true
		}
	}
	return s.applyBatch(w, sc)
}

// applyBatch is observeBatch after the decode: it validates the decoded
// request, fans it out and writes the reply.
func (s *server) applyBatch(w http.ResponseWriter, sc *batchScratch) (reusable bool) {
	req := &sc.req
	if len(req.Entries) == 0 {
		writeError(w, fmt.Errorf("empty batch"))
		return true
	}
	if len(req.Entries) > maxBatchEntries {
		writeError(w, fmt.Errorf("%d entries exceed the %d per-batch cap", len(req.Entries), maxBatchEntries))
		return true
	}
	totalBins := 0
	for i := range req.Entries {
		e := &req.Entries[i]
		if err := validTenantID(e.Tenant); err != nil {
			writeError(w, fmt.Errorf("entry %d: %w", i, err))
			return true
		}
		totalBins += len(e.Counts)
		for _, c := range e.Counts {
			if err := hierctl.CheckBinCount(c); err != nil {
				writeError(w, fmt.Errorf("entry %d (%s): %w", i, e.Tenant, err))
				return true
			}
		}
	}
	if totalBins > maxBatchBins {
		writeError(w, fmt.Errorf("%d bins exceed the %d per-batch cap", totalBins, maxBatchBins))
		return true
	}

	results, err := s.batch(sc.results[:0], req.Entries, req.Decisions)
	if err != nil {
		writeError(w, err)
		return false
	}
	sc.results = results
	s.batchEntries.Observe(float64(len(req.Entries)))
	s.batchBins.Observe(float64(totalBins))

	reusable = true
	resp := &sc.resp
	status := http.StatusOK
	for i := range results {
		res := &results[i]
		out := batchEntryResp{Tenant: res.Tenant, Applied: res.Applied}
		resp.Applied += res.Applied
		switch {
		case res.Err != nil:
			out.Error = res.Err.Error()
			if errors.Is(res.Err, hierctl.ErrFleetQueueFull) {
				resp.Rejected++
				status = http.StatusTooManyRequests
			}
			if errors.Is(res.Err, hierctl.ErrFleetClosed) {
				reusable = false
			}
		case req.Decisions && res.LastDecision != nil:
			out.LastDecision = res.LastDecision
		}
		resp.Results = append(resp.Results, out)
	}
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, resp)
	return reusable
}

// handleTenant serves one tenant: {id}/observe, {id}/state,
// {id}/telemetry, GET and DELETE {id}.
func (s *server) handleTenant(w http.ResponseWriter, r *http.Request) {
	id, sub, nested := strings.Cut(strings.TrimPrefix(r.URL.Path, "/v1/tenants/"), "/")
	if id == "" {
		http.NotFound(w, r)
		return
	}
	switch {
	case sub == "observe" && r.Method == http.MethodPost:
		s.handleObserve(w, r, id)
	case sub == "telemetry" && r.Method == http.MethodGet:
		s.handleTelemetry(w, r, id)
	case sub == "state" && r.Method == http.MethodGet,
		!nested && r.Method == http.MethodGet:
		st, err := s.fleet.State(id)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	case !nested && r.Method == http.MethodDelete:
		rec, err := s.fleet.CloseTenant(id)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, recordDTO{
			Completed:     rec.Completed,
			Dropped:       rec.Dropped,
			Energy:        rec.Energy,
			Switches:      rec.Switches,
			MeanResponse:  rec.MeanResponse(),
			ResponseP95:   rec.ResponseP95,
			ViolationFrac: rec.ViolationFrac,
		})
	default:
		http.NotFound(w, r)
	}
}

// observeScratch is everything one in-flight single-bin /observe needs,
// kept from call to call so a warm call allocates nothing of its own: the
// body bytes, the decision the fleet copies into (Fleet.ObserveInto
// rewrites it in place once it has the tenant's width), and the reply with
// the encoder that writes it — handed a pointer, so the decision is not
// boxed, and encoding/json pools its own state.
type observeScratch struct {
	body  bytes.Buffer
	dec   hierctl.BinDecision
	reply bytes.Buffer
	enc   *json.Encoder // encodes into reply
}

// handleObserve feeds one arrival bin to a tenant and answers the
// decisions now in force, out of a pooled observeScratch. A scratch whose
// body grew past maxPooledBodyBytes is left to the collector.
func (s *server) handleObserve(w http.ResponseWriter, r *http.Request, id string) {
	sc, _ := s.observes.Get().(*observeScratch)
	if sc == nil {
		sc = newObserveScratch()
	}
	if s.observe(w, r, id, sc) && sc.body.Cap() <= maxPooledBodyBytes {
		s.observes.Put(sc)
	}
}

// newObserveScratch returns an empty scratch with its reply encoder bound.
func newObserveScratch() *observeScratch {
	sc := new(observeScratch)
	sc.enc = json.NewEncoder(&sc.reply)
	return sc
}

// observe serves one single-bin observe out of sc and reports whether sc
// may be used again: not once the fleet closed under the call, when an
// abandoned shard job may still be writing sc.dec. The body is decoded by
// parseObserve when it has the compact shape clients send, and by
// json.Unmarshal otherwise.
func (s *server) observe(w http.ResponseWriter, r *http.Request, id string, sc *observeScratch) (reusable bool) {
	if err := readBody(w, r, maxBodyBytes, &sc.body); err != nil {
		writeError(w, err)
		return true
	}
	count, ok := parseObserve(sc.body.Bytes())
	if !ok {
		var req observeReq
		if err := json.Unmarshal(sc.body.Bytes(), &req); err != nil {
			writeError(w, fmt.Errorf("decode request: %w", err))
			return true
		}
		count = req.Count
	}
	return s.observeCount(w, id, count, sc)
}

// observeCount is observe after the decode: it checks the count, steps the
// tenant and writes the decision.
func (s *server) observeCount(w http.ResponseWriter, id string, count float64, sc *observeScratch) (reusable bool) {
	if err := hierctl.CheckBinCount(count); err != nil {
		writeError(w, err)
		return true
	}
	start := time.Now()
	if err := s.observeInto(id, count, &sc.dec); err != nil {
		writeError(w, err)
		return !errors.Is(err, hierctl.ErrFleetClosed)
	}
	s.observeLatency.Observe(time.Since(start).Seconds())
	sc.reply.Reset()
	_ = sc.enc.Encode(&sc.dec) // as writeJSON: a value that fails to encode leaves the body empty
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sc.reply.Bytes()) // the client went away: nothing to report to
	return true
}

// parseObserve decodes the compact body {"count":<number>}, the exact
// shape clients send, without encoding/json: the number must match JSON's
// number grammar, and strconv.ParseFloat converts it, as json.Unmarshal
// does for a float64. Any other body — whitespace, another key or key
// case, a second key, null, a number out of float64's range — reports
// false, for json.Unmarshal to decode or refuse as it always has.
func parseObserve(body []byte) (float64, bool) {
	const prefix = `{"count":`
	if len(body) <= len(prefix) || string(body[:len(prefix)]) != prefix || body[len(body)-1] != '}' {
		return 0, false
	}
	num := body[len(prefix) : len(body)-1]
	if !isJSONNumber(num) {
		return 0, false
	}
	count, err := strconv.ParseFloat(string(num), 64)
	return count, err == nil
}

// parseBatch decodes the compact batch body clients send into req without
// encoding/json, reusing req's entries and each entry's Counts backing
// array. It accepts exactly
//
//	{"entries":[E(,E)*]}  or  {"entries":[E(,E)*],"decisions":true|false}
//
// where each E is {"tenant":"<id>","counts":[]} or
// {"tenant":"<id>","counts":[N(,N)*]}, <id> is printable ASCII with no
// quote or backslash (so its bytes are the decoded string), and each N
// matches JSON's number grammar and converts with strconv.ParseFloat, as
// json.Unmarshal does for a float64. Any other body — whitespace, another
// key, key order or case, an escape, null, a number out of float64's range
// — reports false, leaving req partly written, for json.Unmarshal to
// decode or refuse as it always has. A registered tenant's id is the
// fleet's own string; only an unknown one is copied.
//
//hpm:hotpath
func parseBatch(body []byte, req *batchReq, ids *hierctl.Fleet) bool {
	const (
		head      = `{"entries":[`
		tenantKey = `{"tenant":"`
		countsKey = `","counts":[`
	)
	if !hasPrefix(body, head) {
		return false
	}
	i := len(head)
	entries := req.Entries[:0]
	for {
		if !hasPrefix(body[i:], tenantKey) {
			return false
		}
		i += len(tenantKey)
		start := i
		for i < len(body) && body[i] != '"' {
			if c := body[i]; c < ' ' || c > '~' || c == '\\' {
				return false
			}
			i++
		}
		raw := body[start:i]
		if !hasPrefix(body[i:], countsKey) {
			return false
		}
		i += len(countsKey)
		if len(entries) < cap(entries) {
			entries = entries[:len(entries)+1]
		} else {
			entries = append(entries, hierctl.BatchEntry{})
		}
		e := &entries[len(entries)-1]
		id, ok := ids.TenantID(raw)
		if !ok {
			id = string(raw) //hpm:alloc an unknown id: its per-entry error row names it
		}
		e.Tenant = id
		counts := e.Counts[:0]
		if i < len(body) && body[i] == ']' {
			i++
		} else {
			for {
				j := i
				for j < len(body) && body[j] != ',' && body[j] != ']' {
					j++
				}
				num := body[i:j]
				if j == len(body) || !isJSONNumber(num) {
					return false
				}
				c, err := strconv.ParseFloat(string(num), 64)
				if err != nil {
					return false
				}
				counts = append(counts, c)
				i = j + 1
				if body[j] == ']' {
					break
				}
			}
		}
		e.Counts = counts
		if !hasPrefix(body[i:], "}") {
			return false
		}
		i++
		if !hasPrefix(body[i:], ",") {
			break
		}
		i++
	}
	switch string(body[i:]) {
	case `]}`, `],"decisions":false}`:
		req.Decisions = false
	case `],"decisions":true}`:
		req.Decisions = true
	default:
		return false
	}
	req.Entries = entries
	return true
}

// hasPrefix reports whether b begins with s, without converting either.
func hasPrefix(b []byte, s string) bool {
	return len(b) >= len(s) && string(b[:len(s)]) == s
}

// isJSONNumber reports whether b is exactly one JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func isJSONNumber(b []byte) bool {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	j := digits(b, i)
	if j == i || b[i] == '0' && j > i+1 {
		return false
	}
	i = j
	if i < len(b) && b[i] == '.' {
		if j = digits(b, i+1); j == i+1 {
			return false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j = digits(b, i); j == i {
			return false
		}
		i = j
	}
	return i == len(b)
}

// digits returns the index of the first byte at or after i in b that is
// not a decimal digit.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// maxTelemetryWindow bounds one telemetry response; the flight recorder
// may retain more, but a single GET never serializes more than this.
const maxTelemetryWindow = 4096

// telemetryDTO is the /v1/tenants/{id}/telemetry payload: the newest
// recorded decisions (oldest first) plus the recorder's write cursor.
// Records use the flight recorder's JSON shape (tick, level, module,
// comp, freqIdx, ...); total only grows, so clients can diff it across
// polls to detect how much they missed. A restart is one such gap: a
// restored tenant's window starts empty and its total carries on from the
// checkpoint.
type telemetryDTO struct {
	Tenant  string                    `json:"tenant"`
	Total   uint64                    `json:"total"`
	Records []hierctl.TelemetryRecord `json:"records"`
}

// handleTelemetry serves the read-only flight-recorder window. ?max=N
// trims the response to the newest N records (default and cap
// maxTelemetryWindow). Tenants running without a recorder return an
// empty window, not an error.
func (s *server) handleTelemetry(w http.ResponseWriter, r *http.Request, id string) {
	max := maxTelemetryWindow
	if raw := r.URL.Query().Get("max"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			writeError(w, fmt.Errorf("max %q is not a positive integer", raw))
			return
		}
		if n < max {
			max = n
		}
	}
	recs, total, err := s.fleet.Telemetry(id, max)
	if err != nil {
		writeError(w, err)
		return
	}
	if recs == nil {
		recs = []hierctl.TelemetryRecord{}
	}
	writeJSON(w, http.StatusOK, telemetryDTO{Tenant: id, Total: total, Records: recs})
}

// handleMetrics renders the fleet counters and the decision telemetry in
// the Prometheus text exposition format (the internal registry — no client
// library). Every series is set at scrape time from one read of the
// fleet's counters, Stats — each shard's totals under its lock, nothing
// per tenant and no wait behind queued ingest, no flight record read —
// plus the shard queue depths and the journal's sizes. No family has a
// series per tenant, so the output does not grow with the tenant count. A
// warm scrape allocates nothing here: the reads and the render reuse the
// server's metricsScratch, and the rendered bytes go straight to the
// response.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.renderMu.Lock()
	sc := s.metricsScratch
	s.metricsScratch = nil
	s.renderMu.Unlock()
	if sc == nil {
		sc = new(metricsScratch)
	}
	defer func() {
		s.renderMu.Lock()
		s.metricsScratch = sc
		s.renderMu.Unlock()
	}()
	stats := s.fleet.Stats()
	sc.depths = s.fleet.QueueDepthsInto(sc.depths)
	var js hierctl.FleetJournalStats
	if s.journal != nil {
		js = s.journal.Stats()
	}

	s.renderMu.Lock()
	s.tenants.Set(float64(stats.Tenants))
	s.shards.Set(float64(stats.Shards))
	s.uptime.Set(time.Since(s.start).Seconds())
	s.observations.SetTotal(float64(stats.Observations))
	s.ticks.SetTotal(float64(stats.Ticks))
	s.decideSeconds.SetTotal(stats.DecideSeconds)
	s.snapshots.SetTotal(float64(stats.Snapshots))
	s.restores.SetTotal(float64(stats.Restores))
	s.queueRejects.SetTotal(float64(stats.QueueRejects))
	s.tenantPanics.SetTotal(float64(stats.Panics))
	s.quarantinedTenants.Set(float64(stats.Quarantined))
	s.setArtifactStats("gmap", stats.Artifacts.GMaps)
	s.setArtifactStats("tree", stats.Artifacts.Trees)
	for i, depth := range sc.depths {
		s.shardQueueDepth[i].Set(float64(depth))
	}
	s.journalBase.Set(float64(js.BaseBytes))
	s.journalTail.Set(float64(js.TailBytes))
	s.journalCompactions.SetTotal(float64(js.Compactions))

	s.qosViolations.SetTotal(float64(stats.QoSViolations))
	s.degradedTicks.SetTotal(float64(stats.DegradedTicks))
	s.staleObs.SetTotal(float64(stats.StaleObservations))
	s.operational.Set(float64(stats.Operational))
	for i, level := range hierctl.FleetTelemetryLevels {
		lv := &stats.Levels[i]
		if lv.Decisions == 0 {
			continue // a level no tenant has (L2 on single-module fleets) gets no series
		}
		name := level.String()
		s.levelDecide.With(name).SetBuckets(lv.DecideBuckets[:], lv.Decisions, float64(lv.DecideNs)/1e9) //hpm:boundedlabel level enum: l0, l1, l2
		s.levelExplored.With(name).SetBuckets(lv.ExploredBuckets[:], lv.Decisions, float64(lv.Explored)) //hpm:boundedlabel level enum: l0, l1, l2
	}
	setTop(s.qosTop, &stats.Top.QoS)
	setTop(s.degradedTop, &stats.Top.Degraded)
	setTop(s.staleTop, &stats.Top.Stale)
	sc.body = s.reg.AppendText(sc.body[:0])
	s.renderMu.Unlock()
	w.Header()["Content-Type"] = metricsContentType
	_, _ = w.Write(sc.body) // the client went away: nothing to report to
}

// setTop replaces a worst-tenants family's series with the ranking's
// entries (those with a non-zero count).
func setTop(g *metrics.GaugeVec, top *hierctl.FleetTopTenants) {
	g.Reset()
	for _, e := range top {
		if e.Count == 0 {
			break
		}
		g.With(e.ID).Set(float64(e.Count)) //hpm:boundedlabel at most FleetTopK tenants, replaced every scrape
	}
}

func (s *server) setArtifactStats(kind string, ks hierctl.ArtifactKindStats) {
	s.artifacts.With(kind).Set(float64(ks.Held))             //hpm:boundedlabel artifact kind: gmap or tree
	s.artifactLearns.With(kind).SetTotal(float64(ks.Learns)) //hpm:boundedlabel artifact kind: gmap or tree
	s.artifactShares.With(kind).SetTotal(float64(ks.Shares)) //hpm:boundedlabel artifact kind: gmap or tree
}
