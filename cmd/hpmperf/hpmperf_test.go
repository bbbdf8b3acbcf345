package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hierctl/internal/obs"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 1: 100} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

// The tail percentile is the highest on the ladder with at least ten
// samples beyond it.
func TestPickTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0.50},   // 9 beyond the median: no tail to speak of
		{100, 0.90},  // exactly 10 beyond p90
		{420, 0.95},  // 21 beyond p95, 8 beyond p98
		{999, 0.98},  // 9 beyond p99
		{1000, 0.99}, // exactly 10 beyond p99
		{5000, 0.99}, // the ladder stops at p99
	} {
		if got := pickTail(c.n); got != c.want {
			t.Errorf("pickTail(%d) = %v, want %v", c.n, got, c.want)
		}
		if beyond := samplesBeyond(c.n, pickTail(c.n)); c.n >= 20 && beyond < 10 {
			t.Errorf("pickTail(%d) leaves %d samples beyond", c.n, beyond)
		}
	}
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	a := arrivalCounts(7, 3, 500, 25)
	b := arrivalCounts(7, 3, 500, 25)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, tenant and length gave different series")
	}
	if reflect.DeepEqual(a, arrivalCounts(8, 3, 500, 25)) {
		t.Error("another seed gave the same series")
	}
	if reflect.DeepEqual(a, arrivalCounts(7, 4, 500, 25)) {
		t.Error("another tenant gave the same series")
	}
	sum := 0.0
	for _, v := range a {
		if v < 0 || v != float64(int64(v)) {
			t.Fatalf("count %v is not a whole non-negative number", v)
		}
		sum += v
	}
	if mean := sum / float64(len(a)); mean < 15 || mean > 40 {
		t.Errorf("series mean %v far from the requested 25", mean)
	}

	// The requests themselves: byte-identical per seed, different across.
	bodies := func(seed int64) []byte {
		var all bytes.Buffer
		for _, sp := range specs {
			in, err := buildInputs(sp.smoked(), seed, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			for _, body := range in.creates {
				all.Write(body)
			}
			for _, phase := range [][][]call{in.history, in.closed, in.open} {
				for _, calls := range phase {
					for _, k := range calls {
						all.WriteString(k.path)
						all.Write(k.body)
					}
				}
			}
		}
		return all.Bytes()
	}
	if !bytes.Equal(bodies(1), bodies(1)) {
		t.Error("same seed generated different request bytes")
	}
	if bytes.Equal(bodies(1), bodies(2)) {
		t.Error("different seeds generated the same request bytes")
	}
}

// Every tenant gets exactly the bins its calls carry, whichever phase and
// connection they come through.
func TestSentBinsMatchesCalls(t *testing.T) {
	for _, sp := range specs {
		in, err := buildInputs(sp.smoked(), 1, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int{}
		for _, phase := range [][][]call{in.history, in.closed, in.open} {
			for _, calls := range phase {
				for _, k := range calls {
					if k.wantBin >= 0 {
						id := strings.TrimSuffix(strings.TrimPrefix(k.path, "/v1/tenants/"), "/observe")
						if got[id] != k.wantBin {
							t.Fatalf("%s: %s bin %d sent after %d bins", sp.name, id, k.wantBin, got[id])
						}
						got[id]++
						continue
					}
					var req batchReq
					if err := json.Unmarshal(k.body, &req); err != nil {
						t.Fatal(err)
					}
					for _, e := range req.Entries {
						got[e.Tenant] += len(e.Counts)
					}
				}
			}
		}
		for i := 0; i < in.sp.tenants; i++ {
			if got[tenantID(i)] != in.sentBins(i) || in.sentBins(i) > len(in.counts[i]) {
				t.Errorf("%s: tenant %d: calls carry %d bins, sentBins says %d, series has %d", sp.name, i, got[tenantID(i)], in.sentBins(i), len(in.counts[i]))
			}
		}
	}
}

// fakeObserve answers single observes with the decision closing the
// next bin, stalling once on the request numbered stallAt.
func fakeObserve(stallAt int64, stall time.Duration) *httptest.Server {
	var n atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		k := n.Add(1) - 1
		if k == stallAt {
			time.Sleep(stall)
		}
		_, _ = io.Copy(io.Discard, r.Body)
		_ = json.NewEncoder(w).Encode(decisionDTO{Bin: int(k), Modules: []moduleDTO{{}}})
	}))
}

// The open loop times every request from when it was due: a 50 ms stall
// in the server shows up in the requests queued behind it, and in how
// late the generator sent them.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		rate    = 200.0 // one request every 5 ms
		n       = 30
		stallAt = 5
		stall   = 50 * time.Millisecond
	)
	srv := fakeObserve(stallAt, stall)
	defer srv.Close()
	calls := make([]call, n)
	for i := range calls {
		calls[i] = call{path: "/v1/tenants/t/observe", body: []byte(`{"count":1}`), entries: 1, bins: 1, wantBin: i}
	}
	p := openLoop(srv.URL, [][]call{calls}, rate)
	if p.failed != 0 || p.attempted != n {
		t.Fatalf("attempted %d failed %d (%s), want %d and 0", p.attempted, p.failed, p.first, n)
	}
	if len(p.lat) != n || len(p.late) != n {
		t.Fatalf("%d latencies, %d latenesses, want %d each", len(p.lat), len(p.late), n)
	}
	// The stalled request itself was sent on time and took the stall.
	if p.late[stallAt] > 20*time.Millisecond || p.lat[stallAt] < stall {
		t.Errorf("stalled request: late %v latency %v, want on time and >= %v", p.late[stallAt], p.lat[stallAt], stall)
	}
	// The next one was due 5 ms into the stall: it could only be sent
	// ~45 ms late, and its latency from due time includes that wait — a
	// send-time clock would have called it fast.
	next := stallAt + 1
	if p.late[next] < 30*time.Millisecond {
		t.Errorf("request behind the stall sent %v late, want >= 30ms", p.late[next])
	}
	if p.lat[next] < p.late[next] {
		t.Errorf("latency %v is below the lateness %v it must include", p.lat[next], p.late[next])
	}
	// The schedule catches up: the last requests are on time again.
	if p.late[n-1] > 20*time.Millisecond {
		t.Errorf("last request still %v late: the loop never caught up", p.late[n-1])
	}
	// And the whole phase took the schedule's length, not the closed
	// loop's: n requests at 200/s.
	if want := time.Duration(float64(n-1) / rate * float64(time.Second)); p.wall < want {
		t.Errorf("phase took %v, shorter than the %v schedule", p.wall, want)
	}
}

// A refused or short reply fails closed: it is counted, with its reason.
func TestIssueCountsFailures(t *testing.T) {
	replies := []struct {
		status int
		body   string
		failed int
	}{
		{200, `{"applied":4,"rejected":0,"results":[{"tenant":"a","applied":2},{"tenant":"b","applied":2}]}`, 0},
		{429, `{"applied":2,"rejected":1,"results":[{"tenant":"a","applied":2},{"tenant":"b","applied":0,"error":"queue full"}]}`, 2},
		{200, `{"applied":3,"rejected":0,"results":[{"tenant":"a","applied":2},{"tenant":"b","applied":1}]}`, 1},
		{200, `{"applied":2,"rejected":0,"results":[{"tenant":"a","applied":2}]}`, 2},
		{500, `boom`, 2},
	}
	var i atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rep := replies[i.Add(1)-1]
		w.WriteHeader(rep.status)
		_, _ = io.WriteString(w, rep.body)
	}))
	defer srv.Close()
	cl := newClient(srv.URL)
	defer cl.close()
	for n, rep := range replies {
		var tl tally
		cl.issue(call{path: "/v1/observe:batch", body: []byte(`{}`), entries: 2, bins: 2, wantBin: -1}, &tl)
		if tl.attempted != 2 || tl.failed != rep.failed {
			t.Errorf("reply %d: attempted %d failed %d (%s), want 2 and %d", n, tl.attempted, tl.failed, tl.first, rep.failed)
		}
		if (tl.first != "") != (rep.failed > 0) {
			t.Errorf("reply %d: first failure %q for %d failures", n, tl.first, rep.failed)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "round", start: ms(0), end: ms(100), parent: -1},    // 0
		{name: "call", start: ms(10), end: ms(90), parent: 0},      // 1: nested in 0
		{name: "step", start: ms(20), end: ms(50), parent: 1},      // 2
		{name: "step", start: ms(40), end: ms(70), parent: 1},      // 3: overlaps 2 by 10
		{name: "step", start: ms(45), end: ms(60), parent: 1},      // 4: inside 2 ∪ 3
		{name: "late", start: ms(80), end: ms(120), parent: 1},     // 5: overhangs its parent
		{name: "leaf", start: ms(95), end: ms(95), parent: 0},      // 6: empty
		{name: "outside", start: ms(200), end: ms(210), parent: 0}, // 7: wholly outside
	}
	want := []time.Duration{
		ms(100 - 80),           // round: minus call only; the empty and outside children cover nothing
		ms(80 - 50 - 10),       // call: steps cover [20,70) once, late covers [80,90)
		ms(30), ms(30), ms(15), // leaves keep their duration
		ms(40), 0, ms(10),
	}
	got := selfTimes(spans)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// L1 and L2 write one summary record per decision followed by detail rows
// without timing; only summaries may be summed.
func TestSummaryRecordFilter(t *testing.T) {
	recs := []obs.Record{
		{Level: obs.LevelL2, Module: -1, Comp: -1, DecideNs: 900, Explored: 35},
		{Level: obs.LevelL2, Module: 0, Comp: -1, Gamma: 0.5},
		{Level: obs.LevelL2, Module: 1, Comp: -1, Gamma: 0.5},
		{Level: obs.LevelL1, Module: 0, Comp: -1, DecideNs: 400, Explored: 12},
		{Level: obs.LevelL1, Module: 0, Comp: 0, On: true},
		{Level: obs.LevelL1, Module: 0, Comp: 1, On: true},
		{Level: obs.LevelL0, Module: 0, Comp: 0, DecideNs: 100, Explored: 9},
		{Level: obs.LevelL0, Module: 0, Comp: 1, DecideNs: 110, Explored: 9},
		{Level: obs.LevelTick, Module: -1, Comp: -1, DecideNs: 1600},
	}
	wantSummary := []bool{true, false, false, true, false, false, true, true, true}
	for i, r := range recs {
		if got := summary(r); got != wantSummary[i] {
			t.Errorf("record %d (%v module %d comp %d): summary = %v, want %v", i, r.Level, r.Module, r.Comp, got, wantSummary[i])
		}
	}
	var s levelSums
	s.add(recs)
	want := levelSums{
		decideNs: [4]int64{obs.LevelTick: 1600, obs.LevelL0: 210, obs.LevelL1: 400, obs.LevelL2: 900},
		decides:  [4]int64{obs.LevelTick: 1, obs.LevelL0: 2, obs.LevelL1: 1, obs.LevelL2: 1},
		explored: [4]int64{obs.LevelL0: 18, obs.LevelL1: 12, obs.LevelL2: 35},
	}
	if s != want {
		t.Errorf("levelSums = %+v, want %+v", s, want)
	}
}

// contract is BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var c contract
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// BENCHMARK.json and the code's catalog say the same thing.
func TestCatalogMatchesContract(t *testing.T) {
	c := readContract(t)
	if want := []string{"go", "run", "./cmd/hpmperf"}; !reflect.DeepEqual(c.Command, want) {
		t.Errorf("command = %v, want %v", c.Command, want)
	}
	if want := []string{"cmd/hpmperf"}; !reflect.DeepEqual(c.Paths, want) {
		t.Errorf("paths = %v, want %v", c.Paths, want)
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("%d workloads in the contract, %d in the code", len(c.Workloads), len(specs))
	}
	for i, sp := range specs {
		if w := c.Workloads[i]; w.Name != sp.name || w.Why != sp.why {
			t.Errorf("workload %d: contract has %q (%q), code has %q (%q)", i, w.Name, w.Why, sp.name, sp.why)
		}
		if len(sp.why) > 200 || strings.Contains(sp.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", sp.name, len(sp.why))
		}
	}
	check := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the contract, %d in the code", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: contract has %+v, code has %+v", kind, i, g, m)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.bound || m.bound <= 0 || m.bound > 0.25):
				t.Errorf("%s: bound must be in (0, 0.25] and equal in both, code has %v", m.name, m.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", m.name)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[m.name] {
			t.Errorf("metric name %q used twice", m.name)
		}
		seen[m.name] = true
	}
	for _, name := range append(append([]string(nil), exactEndToEnd...), exactPerLayer...) {
		if !seen[name] {
			t.Errorf("exact metric %q is not in the catalog", name)
		}
	}
}

// Flags the contract has no use for are refused before anything is built.
func TestRunRefusesBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-sets", "3"},
		{"-sets", "0"},
		{"-seconds", "0"},
		{"-trace", "2"},
		{"-connections", "1"},
		{"stray"},
	} {
		if err := run(args, t.TempDir(), io.Discard, io.Discard); err == nil {
			t.Errorf("run(%q) succeeded, want a refusal", args)
		}
	}
}

// A child that never listens fails the start at once, with its exit.
func TestStartDaemonFailsFast(t *testing.T) {
	// The test binary run with no matching test prints no "listening on"
	// line and exits.
	from := time.Now()
	_, err := startDaemon(os.Args[0], "-test.run=^$")
	if err == nil || !strings.Contains(err.Error(), "exited before listening") {
		t.Fatalf("startDaemon of a non-daemon: %v", err)
	}
	if took := time.Since(from); took > 10*time.Second {
		t.Errorf("took %v to notice the child was gone", took)
	}
}

// The whole benchmark at about 1 % size against a freshly built daemon:
// every workload, traced and untraced, output checks included.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	if runtime.NumCPU() < conns {
		t.Skipf("the load shape needs %d CPUs, this box has %d", conns, runtime.NumCPU())
	}
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-smoke", "-trace-out", trace}
	if err := run(args, dir, &stdout, &stderr); err != nil {
		t.Fatalf("hpmperf -smoke: %v\n%s\n%s", err, stderr.String(), stdout.String())
	}
	for _, sp := range specs {
		if !strings.Contains(stdout.String(), "== "+sp.name+":") {
			t.Errorf("no result for workload %s", sp.name)
		}
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file: %v", err)
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		names[e.Name] = true
	}
	for _, want := range []string{"round", "fleet.ObserveBatch", "fleet.Observe", "controller.tick", "controller.l0", "controller.l1", "controller.l2", "fleet.Snapshot", "fleet.Journal.Append"} {
		if !names[want] {
			t.Errorf("trace has no %q span", want)
		}
	}

	// One workload the way the contract's command runs it: the last line
	// is the result object with exactly the end-to-end metrics.
	stdout.Reset()
	args = []string{"--workload", "rpc-single", "--seed", "3", "--seconds", "1", "--trace", "0", "-smoke"}
	if err := run(args, dir, &stdout, &stderr); err != nil {
		t.Fatalf("hpmperf --workload rpc-single: %v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var result map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
		t.Fatalf("last line is not a JSON object: %v", err)
	}
	if len(result) != 4 || result["correct"] == nil || result["attempted"] == nil || result["failed"] == nil || result["metrics"] == nil {
		t.Errorf("result object has keys %v", reflect.ValueOf(result).MapKeys())
	}
	var got map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if err := json.Unmarshal(result["metrics"], &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(endToEnd) {
		t.Errorf("%d metrics in the result, want the %d end-to-end ones", len(got), len(endToEnd))
	}
	for _, m := range endToEnd {
		if v, ok := got[m.name]; !ok || v.Unit != m.unit || !(v.Value > 0) {
			t.Errorf("metric %s = %+v, want a positive value in %s", m.name, v, m.unit)
		}
	}
}
