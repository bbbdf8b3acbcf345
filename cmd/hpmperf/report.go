package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"
)

// outcome is one workload's result: the end-to-end metrics of the
// untraced daemon run, the per-layer metrics of the traced run (nil when
// it was not asked for), and the output check's verdict.
type outcome struct {
	name      string
	e2e       map[string]float64
	layers    layerSet
	ledger    []string // the traced run's two ledger lines
	attempted int
	failed    int
	first     string // first failed check
	digest    string
	measured  time.Duration // wall of the measured phases, restarts included
	// Sample counts behind the timing metrics.
	setups            []float64 // seconds per set-up pass
	requests, scrapes int
	tailPct           float64
	tailBeyond        int
}

// runWorkload generates the workload's inputs, runs it against the
// daemon, checks the outputs against the in-process twin and, given a
// tracer, runs the traced pass. withSetup repeats set-up so setup_s is a
// median; a run that only wants the layers sets up once.
func runWorkload(ev *env, sp spec, seed int64, seconds float64, withSetup bool, tr *tracer) (*outcome, error) {
	in, err := buildInputs(sp, seed, seconds)
	if err != nil {
		return nil, err
	}
	setups := 1
	if withSetup {
		setups = sp.setups
	}
	// Encoding the inputs leaves garbage behind; collect it now, so that
	// hpmperf's collector does not share the cores with the first set-up
	// passes.
	runtime.GC()
	from := time.Now()
	res, err := runE2E(ev, in, setups)
	if err != nil {
		return nil, err
	}
	out := &outcome{name: sp.name, measured: time.Since(from)}
	for _, s := range res.setup {
		out.measured -= time.Duration(s * float64(time.Second))
	}

	var layers layerSet
	if tr != nil {
		tr.scope = sp.name
		if layers, out.ledger, err = tracedPass(ev, in, res, tr); err != nil {
			return nil, err
		}
	}
	if tr == nil || !fullReplay(sp) {
		// No full twin ran: check the first and the last tenant, one from
		// each end of the connection partitions.
		if err := checkTwin(in, res, []int{0, sp.tenants - 1}); err != nil {
			return nil, err
		}
	}

	out.e2e = map[string]float64{
		"setup_s":             median(res.setup),
		"energy_per_req_j":    res.energy / res.completed,
		"response_mean_s":     res.responseSum / res.completed,
		"wire_bytes_per_bin":  float64(res.sentBytes+res.recvBytes) / float64(res.bins),
		"rss_peak_mb":         res.rssPeakMB,
		"alloc_bytes_per_bin": res.allocBytes / float64(res.bins),
	}
	lat := millis(res.lat)
	out.layers = layers
	out.attempted, out.failed, out.first = res.attempted, res.failed, res.first
	out.digest = res.digest()
	out.setups = res.setup
	out.requests, out.scrapes = len(lat), len(res.scrapes)
	out.tailPct = pickTail(len(lat))
	out.tailBeyond = samplesBeyond(len(lat), out.tailPct)
	return out, nil
}

// printWorkload writes one workload's metrics by name, with unit,
// direction and bound.
func printWorkload(w io.Writer, out *outcome) {
	fmt.Fprintf(w, "\n== %s: %d operations, %d failed; %d set-up passes (%.3f to %.3f s); measured %.1fs; %d requests (tail p%g, %d samples beyond), %d scrapes; digest %s\n",
		out.name, out.attempted, out.failed, len(out.setups), slices.Min(out.setups), slices.Max(out.setups), out.measured.Seconds(), out.requests, out.tailPct*100, out.tailBeyond, out.scrapes, out.digest[:16])
	if out.failed > 0 {
		fmt.Fprintf(w, "   first failure: %s\n", out.first)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "   %-36s %14.6g %-6s %-6s bound %.3g%%\n", m.name, out.e2e[m.name], m.unit, m.better, m.bound*100)
	}
	for _, line := range out.ledger {
		fmt.Fprintf(w, "   ledger: %s\n", line)
	}
	if out.layers == nil {
		return
	}
	for _, m := range perLayer {
		fmt.Fprintf(w, "     %-34s %14.6g %-6s %s\n", m.name, out.layers[m.name], m.unit, m.better)
	}
}

// suiteDocument is the suite's machine-readable result.
func suiteDocument(o options, set []*outcome) map[string]any {
	workloads := map[string]any{}
	for _, out := range set {
		workloads[out.name] = map[string]any{
			"attempted":       out.attempted,
			"failed":          out.failed,
			"decision_digest": out.digest,
			"measured_s":      out.measured.Seconds(),
			"requests":        out.requests,
			"tail_percentile": out.tailPct,
			"end_to_end":      out.e2e,
			"per_layer":       out.layers,
		}
	}
	return map[string]any{
		"machine": map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
			"commit": commit(), "date": time.Now().UTC().Format("2006-01-02"),
		},
		"seed": o.seed, "seconds": o.seconds, "connections": conns,
		"workloads": workloads,
	}
}

// compareSets prints, per metric, how far two sets of the same code and
// seed disagree, beside the metric's bound, and returns what disagrees
// by more: an end-to-end metric beyond its bound, or any seed-determined
// value — digests, the exact per-layer counts — that differs at all.
func compareSets(w io.Writer, a, b []*outcome) []string {
	var failures []string
	fmt.Fprintf(w, "\n== repeatability: |a-b|/min(a,b) per metric, two sets\n")
	for i := range a {
		x, y := a[i], b[i]
		if x.digest != y.digest {
			failures = append(failures, fmt.Sprintf("%s: decision digests differ between sets: %s vs %s", x.name, x.digest[:16], y.digest[:16]))
		}
		for _, m := range endToEnd {
			d := relDiff(x.e2e[m.name], y.e2e[m.name])
			verdict := "ok"
			if d > m.bound {
				verdict = "BEYOND BOUND"
				failures = append(failures, fmt.Sprintf("%s: %s disagrees by %.1f%% between sets (bound %.3g%%)", x.name, m.name, d*100, m.bound*100))
			}
			fmt.Fprintf(w, "   %-16s %-36s %14.6g %14.6g %7.2f%%  bound %.3g%%  %s\n", x.name, m.name, x.e2e[m.name], y.e2e[m.name], d*100, m.bound*100, verdict)
		}
		for _, name := range exactEndToEnd {
			if x.e2e[name] != y.e2e[name] {
				failures = append(failures, fmt.Sprintf("%s: %s must repeat exactly: %v vs %v", x.name, name, x.e2e[name], y.e2e[name]))
			}
		}
		for _, name := range exactPerLayer {
			if x.layers[name] != y.layers[name] {
				failures = append(failures, fmt.Sprintf("%s: %s must repeat exactly: %v vs %v", x.name, name, x.layers[name], y.layers[name]))
			}
		}
		for _, m := range perLayer {
			fmt.Fprintf(w, "     %-14s %-36s %14.6g %14.6g %7.2f%%\n", x.name, m.name, x.layers[m.name], y.layers[m.name], relDiff(x.layers[m.name], y.layers[m.name])*100)
		}
	}
	return failures
}
