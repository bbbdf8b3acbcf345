package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// env is what every run of a process shares.
type env struct {
	daemonBin string
	workDir   string // holds the per-workload temp dirs (journals)
	log       io.Writer
}

// scrapeEvery is the /metrics cadence during every measured phase: what a
// Prometheus server would do, fast enough for 15+ samples in a run.
const scrapeEvery = 500 * time.Millisecond

// e2e is what one run of a workload against the daemon observed, from
// outside: the raw samples behind the end-to-end metrics and the
// daemon-side layer metrics.
type e2e struct {
	tally
	setup        []float64 // seconds per set-up pass: exec + create all tenants
	ready        []float64 // seconds exec → /readyz 200, per daemon start
	createMs     []float64 // POST /v1/tenants round-trips of the last pass
	noopUs       []float64 // GET /readyz round-trips on the set-up, idle daemon
	bins         int       // observation bins applied in the measured phases
	wall         time.Duration
	capacityBins int // modeRPC: phase A's bins and wall (throughput comes from it)
	capacityWall time.Duration
	lat          []time.Duration // round-trips (modeRPC: phase B, from due time)
	late         []time.Duration // modeRPC phase B: send time − due time
	scrapes      []time.Duration

	sentBytes, recvBytes int64
	cpuSeconds           float64
	allocBytes           float64 // daemon heap bytes allocated during the measured phases
	rssPeakMB            float64
	queueRejects         float64
	metricsBytes         int
	metricsSeries        int
	shutdownFlush        []float64     // seconds SIGTERM → exit
	restoreReady         []float64     // seconds exec → ready on a journal
	outage               time.Duration // restart cycles: SIGTERM → ready again, summed
	persistBytes         int64

	// From the DELETE records: what the controllers achieved. Pure
	// functions of the seed.
	energy, completed, responseSum, violationSum float64
	tenantDigests                                [][sha256.Size]byte
}

// digest folds the per-tenant digests, in tenant order, into the
// workload's decision digest.
func (r *e2e) digest() string {
	h := sha256.New()
	for _, d := range r.tenantDigests {
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tenantDigest hashes one tenant's final state and close record.
func tenantDigest(state, record []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write(bytes.TrimSpace(state))
	h.Write([]byte{0})
	h.Write(bytes.TrimSpace(record))
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// phase is one measured phase's samples.
type phase struct {
	tally
	wall       time.Duration
	bins       int
	lat, late  []time.Duration
	sent, recv int64
}

// closedLoop runs every connection's calls back to back, each connection
// sending its next request only after the previous reply.
func closedLoop(base string, calls [][]call) phase {
	return drive(base, calls, 0)
}

// openLoop sends every connection's calls on a fixed schedule, rate
// requests per second over all connections, regardless of replies: each
// request is timed from when it was due, so a stall counts against every
// request queued behind it, and how late each was sent is kept.
func openLoop(base string, calls [][]call, rate float64) phase {
	return drive(base, calls, time.Duration(float64(len(calls))/rate*float64(time.Second)))
}

// drive is both loops: interval 0 is the closed loop, anything else the
// per-connection spacing of the open loop (connections are staggered
// evenly inside one interval).
func drive(base string, calls [][]call, interval time.Duration) phase {
	parts := make([]phase, len(calls))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range calls {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			cl := newClient(base)
			defer cl.close()
			p.lat = make([]time.Duration, 0, len(calls[c]))
			offset := interval * time.Duration(c) / time.Duration(len(calls))
			for j, k := range calls[c] {
				from := time.Now()
				if interval > 0 {
					due := start.Add(offset + interval*time.Duration(j))
					sleepUntil(due)
					p.late = append(p.late, max(0, time.Since(due)))
					from = due
				}
				p.lat = append(p.lat, cl.issue(k, &p.tally).Sub(from))
				p.bins += k.entries * k.bins
			}
			p.sent, p.recv = cl.sentBytes, cl.recvBytes
		}(c)
	}
	wg.Wait()
	all := phase{wall: time.Since(start)}
	for i := range parts {
		p := &parts[i]
		all.tally.add(p.tally)
		all.bins += p.bins
		all.lat = append(all.lat, p.lat...)
		all.late = append(all.late, p.late...)
		all.sent += p.sent
		all.recv += p.recv
	}
	return all
}

// scraper polls /metrics on its own connection while a phase runs.
type scraper struct {
	tally
	quit chan struct{}
	done chan struct{}
	lat  []time.Duration
}

func startScraper(base string) *scraper {
	s := &scraper{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		cl := newClient(base)
		defer cl.close()
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
			s.attempted++
			from := time.Now()
			status, _, err := cl.do(http.MethodGet, "/metrics", nil)
			if err != nil || status != http.StatusOK {
				s.fail(1, "GET /metrics: status %d: %v", status, err)
				continue
			}
			s.lat = append(s.lat, time.Since(from))
		}
	}()
	return s
}

// finish stops the scraper, waits for it and folds its samples into r.
func (s *scraper) finish(r *e2e) {
	close(s.quit)
	<-s.done
	r.scrapes = append(r.scrapes, s.lat...)
	r.tally.add(s.tally)
}

// measure runs one phase under the /metrics scraper, the child's CPU
// clock and its allocation counter, and folds it into r.
func (r *e2e) measure(d *daemon, run func() phase) (phase, error) {
	alloc0, err := d.allocBytes()
	if err != nil {
		return phase{}, err
	}
	cpu0, _ := d.cpuSeconds()
	scr := startScraper(d.base)
	p := run()
	scr.finish(r)
	if cpu1, err := d.cpuSeconds(); err == nil {
		r.cpuSeconds += cpu1 - cpu0
	}
	alloc1, err := d.allocBytes()
	if err != nil {
		return phase{}, err
	}
	r.allocBytes += alloc1 - alloc0
	r.tally.add(p.tally)
	r.bins += p.bins
	r.wall += p.wall
	r.sentBytes += p.sent
	r.recvBytes += p.recv
	return p, nil
}

// runE2E runs one workload against the real daemon over loopback HTTP and
// checks every reply. The returned error is for runs that could not be
// carried out; failed operations are counted in the result.
func runE2E(ev *env, in *inputs, setups int) (res *e2e, err error) {
	sp := in.sp
	res = &e2e{}
	dir, err := os.MkdirTemp(ev.workDir, sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	journal := filepath.Join(dir, "fleet.journal")
	var flags []string
	if sp.mode == modeRestart {
		flags = []string{"-journal", journal, "-journal-interval", "1s"}
	}

	var d *daemon
	defer func() {
		if d != nil {
			if _, serr := d.stop(); serr != nil && err == nil {
				err = serr
			}
		}
	}()

	// Set-up, repeated so setup_s is a median: each pass execs a fresh
	// daemon and creates every tenant; the last pass's daemon is measured.
	for pass := 0; pass < setups; pass++ {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return nil, err
			}
			d = nil
			if err := os.Remove(journal); err != nil && !os.IsNotExist(err) {
				return nil, err
			}
		}
		from := time.Now()
		if d, err = startDaemon(ev.daemonBin, flags...); err != nil {
			return nil, err
		}
		res.ready = append(res.ready, d.readyAfter.Seconds())
		if err := createTenants(d, in, res); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(from).Seconds())
	}

	// The no-op round trips are paced like the requests whose median they
	// help explain: back to back for the closed loops, at one connection's
	// open-loop interval for rpc-single.
	var every time.Duration
	if sp.mode == modeRPC {
		every = time.Duration(conns / sp.openRate * float64(time.Second))
	}
	if err := noopRoundTrips(d, res, every); err != nil {
		return nil, err
	}

	switch sp.mode {
	case modeBatch:
		p, err := res.measure(d, func() phase { return closedLoop(d.base, in.closed) })
		if err != nil {
			return nil, err
		}
		res.lat = p.lat
	case modeRPC:
		a, err := res.measure(d, func() phase { return closedLoop(d.base, in.closed) })
		if err != nil {
			return nil, err
		}
		res.capacityBins, res.capacityWall = a.bins, a.wall
		b, err := res.measure(d, func() phase { return openLoop(d.base, in.open, sp.openRate) })
		if err != nil {
			return nil, err
		}
		res.lat, res.late = b.lat, b.late
	case modeRestart:
		h, err := res.measure(d, func() phase { return closedLoop(d.base, in.history) })
		if err != nil {
			return nil, err
		}
		res.lat = h.lat
		for i := 0; i < sp.restarts; i++ {
			flush, err := d.stop()
			d = nil
			if err != nil {
				return nil, err
			}
			res.shutdownFlush = append(res.shutdownFlush, flush.Seconds())
			if d, err = startDaemon(ev.daemonBin, flags...); err != nil {
				return nil, fmt.Errorf("restart %d: %w", i+1, err)
			}
			res.restoreReady = append(res.restoreReady, d.readyAfter.Seconds())
			res.outage += flush + d.readyAfter
			// OpenJournal compacts before the daemon listens, so the file
			// is a fresh base here: its size depends on the seed alone.
			st, err := os.Stat(journal)
			if err != nil {
				return nil, err
			}
			res.persistBytes = st.Size()
			if err := checkRestored(d, in, &res.tally); err != nil {
				return nil, err
			}
		}
		p, err := res.measure(d, func() phase { return closedLoop(d.base, in.closed) })
		if err != nil {
			return nil, err
		}
		res.lat = append(res.lat, p.lat...)
	}
	if err := finalScrape(d, res); err != nil {
		return nil, err
	}
	if err := collect(d, in, res); err != nil {
		return nil, err
	}
	if mb, err := d.rssPeakMB(); err == nil {
		res.rssPeakMB = mb
	}
	flush, err := d.stop()
	d = nil
	if err != nil {
		return nil, err
	}
	res.shutdownFlush = append(res.shutdownFlush, flush.Seconds())
	return res, nil
}

// lockstep runs fn(c, i) for i = 0 … n−1, conns at a time: step k runs
// items k×conns … k×conns+conns−1 concurrently, one per connection c, and
// waits for all of them before the next step. It stops at the first step
// that fails.
func lockstep(n int, fn func(c, i int) error) error {
	errs := make([]error, conns)
	for lo := 0; lo < n; lo += conns {
		width := min(conns, n-lo)
		var wg sync.WaitGroup
		for c := 0; c < width; c++ {
			wg.Add(1)
			go func(c, i int) {
				defer wg.Done()
				errs[c] = fn(c, i)
			}(c, lo+c)
		}
		wg.Wait()
		for _, err := range errs[:width] {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// createTenants creates every tenant, the connections in lockstep. The
// fleet places tenants on shards round-robin in registration order, so
// whatever order a step's creates land in, every run of conns consecutive
// tenants covers conns consecutive shards: placement stays balanced the
// same way on every run while learning uses every core.
func createTenants(d *daemon, in *inputs, res *e2e) error {
	clients := make([]*client, conns)
	for c := range clients {
		clients[c] = newClient(d.base)
		defer clients[c].close()
	}
	took := make([]float64, len(in.creates))
	err := lockstep(len(in.creates), func(c, t int) error {
		from := time.Now()
		status, reply, err := clients[c].do(http.MethodPost, "/v1/tenants", in.creates[t])
		took[t] = float64(time.Since(from).Nanoseconds()) / 1e6
		switch {
		case err != nil:
			return fmt.Errorf("create %s: %w", tenantID(t), err)
		case status != http.StatusCreated:
			return fmt.Errorf("create %s: status %d: %s", tenantID(t), status, bytes.TrimSpace(reply))
		}
		return nil
	})
	res.attempted += len(in.creates)
	res.createMs = took
	return err
}

// noopRoundTrips times the cheapest request the daemon serves, GET
// /readyz, on one keep-alive connection before the measured phases, one
// every `every`: what HTTP itself costs a request here — an idle
// connection's wake-up included when they are spaced — measured without
// any fleet call.
func noopRoundTrips(d *daemon, res *e2e, every time.Duration) error {
	const n = 200
	cl := newClient(d.base)
	defer cl.close()
	res.noopUs = make([]float64, n)
	start := time.Now()
	for i := range res.noopUs {
		sleepUntil(start.Add(every * time.Duration(i)))
		from := time.Now()
		status, _, err := cl.do(http.MethodGet, "/readyz", nil)
		res.noopUs[i] = float64(time.Since(from).Nanoseconds()) / 1e3
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("GET /readyz: status %d: %v", status, err)
		}
	}
	return nil
}

// checkRestored asserts, after a restart on the journal, that every
// tenant came back with exactly its history.
func checkRestored(d *daemon, in *inputs, t *tally) error {
	cl := newClient(d.base)
	defer cl.close()
	status, body, err := cl.do(http.MethodGet, "/v1/tenants", nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("GET /v1/tenants after restart: status %d: %v", status, err)
	}
	var list struct {
		Tenants []stateDTO `json:"tenants"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		return fmt.Errorf("GET /v1/tenants after restart: %w", err)
	}
	t.attempted += in.sp.tenants
	if len(list.Tenants) != in.sp.tenants {
		t.fail(in.sp.tenants, "restart restored %d of %d tenants", len(list.Tenants), in.sp.tenants)
		return nil
	}
	for _, st := range list.Tenants {
		if st.Bins != in.sp.historyBins {
			t.fail(1, "restart restored tenant %s with %d bins, want %d", st.ID, st.Bins, in.sp.historyBins)
		}
	}
	return nil
}

// finalScrape reads /metrics once after ingest, untimed, for the
// exposition's size and the queue-reject counter.
func finalScrape(d *daemon, res *e2e) error {
	cl := newClient(d.base)
	defer cl.close()
	status, body, err := cl.do(http.MethodGet, "/metrics", nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("GET /metrics: status %d: %v", status, err)
	}
	res.metricsBytes = len(body)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		res.metricsSeries++
		if rest, ok := strings.CutPrefix(line, "hpmserve_queue_rejects_total "); ok {
			if res.queueRejects, err = strconv.ParseFloat(rest, 64); err != nil {
				return fmt.Errorf("hpmserve_queue_rejects_total: %w", err)
			}
		}
	}
	return nil
}

// collect reads every tenant's final state, checks its bin count, closes
// it and digests both replies. Connections work through their own
// partitions, as in the measured phases.
func collect(d *daemon, in *inputs, res *e2e) error {
	res.tenantDigests = make([][sha256.Size]byte, in.sp.tenants)
	type sums struct {
		tally
		energy, completed, response, violation float64
		err                                    error
	}
	parts := make([]sums, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := &parts[c]
			cl := newClient(d.base)
			defer cl.close()
			lo, hi := partition(in.sp.tenants, c)
			for t := lo; t < hi; t++ {
				s.attempted += 2
				path := "/v1/tenants/" + tenantID(t)
				status, body, err := cl.do(http.MethodGet, path+"/state", nil)
				if err != nil || status != http.StatusOK {
					s.fail(2, "GET %s/state: status %d: %v", path, status, err)
					continue
				}
				state := append([]byte(nil), body...)
				var st stateDTO
				if err := json.Unmarshal(state, &st); err != nil {
					s.err = fmt.Errorf("GET %s/state: %w", path, err)
					return
				}
				if want := in.sentBins(t); st.Bins != want || st.Quarantined || st.LastDecision == nil {
					s.fail(1, "tenant %s reports %d bins (quarantined=%v), want %d", st.ID, st.Bins, st.Quarantined, want)
				}
				status, body, err = cl.do(http.MethodDelete, path, nil)
				if err != nil || status != http.StatusOK {
					s.fail(1, "DELETE %s: status %d: %v", path, status, err)
					continue
				}
				var rec recordDTO
				if err := json.Unmarshal(body, &rec); err != nil {
					s.err = fmt.Errorf("DELETE %s: %w", path, err)
					return
				}
				s.energy += rec.Energy
				s.completed += float64(rec.Completed)
				s.response += rec.MeanResponse * float64(rec.Completed)
				s.violation += rec.ViolationFrac
				res.tenantDigests[t] = tenantDigest(state, body)
			}
		}(c)
	}
	wg.Wait()
	for i := range parts {
		s := &parts[i]
		if s.err != nil {
			return s.err
		}
		res.tally.add(s.tally)
		res.energy += s.energy
		res.completed += s.completed
		res.responseSum += s.response
		res.violationSum += s.violation
	}
	return nil
}
