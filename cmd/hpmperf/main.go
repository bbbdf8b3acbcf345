// Command hpmperf is the repo's benchmark: it builds cmd/hpmserve, runs
// five workloads against the real daemon binary over loopback HTTP, checks
// every output against an in-process twin, and prints the end-to-end
// metrics a client sees plus a per-layer ledger of where the time goes.
//
// The whole suite, human table plus one JSON document:
//
//	go run ./cmd/hpmperf -seed 1
//	go run ./cmd/hpmperf -seed 1 -sets 2     # repeatability harness
//
// One run of one workload, as BENCHMARK.json's command is invoked; the
// last line of standard output is the result object:
//
//	go run ./cmd/hpmperf -workload rpc-single -seed 7 -seconds 10 -trace 0
//
// -trace 0 reports the end-to-end metrics of the untraced daemon run,
// -trace 1 the per-layer metrics of the traced run. See README.md in this
// directory for the metric glossary and how to compare two commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

func main() {
	// Children are reaped on every way out: a normal return stops its own
	// daemon, an interrupt or a panic lands here, and Pdeathsig covers a
	// SIGKILL of hpmperf itself.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		reapChildren()
		fmt.Fprintln(os.Stderr, "hpmperf: interrupted")
		os.Exit(130)
	}()
	defer func() {
		if v := recover(); v != nil {
			reapChildren()
			panic(v)
		}
	}()
	if err := run(os.Args[1:], workDir, os.Stdout, os.Stderr); err != nil {
		reapChildren()
		fmt.Fprintln(os.Stderr, "hpmperf:", err)
		os.Exit(1)
	}
}

// options are hpmperf's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	traceOut string
	sets     int
	smoke    bool
}

// run is the command: args are its flags, work the directory that takes
// the daemon binary and the per-workload temp dirs (main passes workDir, a
// test its own temp dir).
func run(args []string, work string, stdout, stderr io.Writer) error {
	var o options
	fs := flag.NewFlagSet("hpmperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload and print one result object as the last line (default: the whole suite)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs, decisions and digests")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per workload on the reference box (work is fixed per seed and seconds)")
	fs.StringVar(&o.trace, "trace", "", "with -workload: 0 = end-to-end metrics of the untraced run, 1 = per-layer metrics of the traced run (default: both)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans here as Chrome trace_event JSON (suite default: hpmperf-trace-<seed>.json in the OS temp dir)")
	fs.IntVar(&o.sets, "sets", 1, "1, or 2 to run the suite twice and check the two sets agree within the metrics' bounds")
	fs.BoolVar(&o.smoke, "smoke", false, "shrink every workload to about 1% (the tier-1 smoke test)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.trace != "" && o.trace != "0" && o.trace != "1" {
		return fmt.Errorf("-trace %q: want 0 or 1", o.trace)
	}
	if runtime.NumCPU() < conns {
		return fmt.Errorf("%d connections on %d CPUs: the load generator needs a CPU per connection", conns, runtime.NumCPU())
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if o.sets != 1 && o.sets != 2 {
		return fmt.Errorf("-sets %d: want 1 or 2", o.sets)
	}
	if o.smoke {
		o.seconds = 0.2
	}

	bin, built, err := buildDaemon(work)
	if err != nil {
		return err
	}
	ev := &env{daemonBin: bin, workDir: work, log: stderr}
	fmt.Fprintf(stderr, "hpmperf: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g connections=%d (daemon built in %.2fs)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), o.seed, o.seconds, conns, built.Seconds())

	if o.workload != "" {
		return runOne(ev, o, stdout)
	}
	return runSuite(ev, o, stdout)
}

// commit is the VCS revision the binary was built from, when the
// toolchain stamped one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// specFor resolves a workload name under the run's options.
func specFor(name string, o options) (spec, error) {
	sp, err := findSpec(name)
	if err == nil && o.smoke {
		sp = sp.smoked()
	}
	return sp, err
}

// runOne is the contract's single run: one workload, one result object.
func runOne(ev *env, o options, stdout io.Writer) error {
	sp, err := specFor(o.workload, o)
	if err != nil {
		return err
	}
	wantE2E, wantLayers := o.trace != "1", o.trace != "0"
	var tr *tracer
	if wantLayers {
		tr = newTracer()
	}
	out, err := runWorkload(ev, sp, o.seed, o.seconds, wantE2E, tr)
	if err != nil {
		return err
	}
	if tr != nil && o.traceOut != "" {
		if err := writeTrace(o.traceOut, "hpmperf "+sp.name, tr); err != nil {
			return err
		}
	}
	printWorkload(ev.log, out)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]value{}}
	if wantE2E {
		for _, m := range endToEnd {
			result.Metrics[m.name] = value{out.e2e[m.name], m.unit}
		}
	}
	if wantLayers {
		for _, m := range perLayer {
			result.Metrics[m.name] = value{out.layers[m.name], m.unit}
		}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if out.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed; first: %s", sp.name, out.failed, out.attempted, out.first)
	}
	return nil
}

// runSuite runs every workload, untraced then traced, o.sets times.
func runSuite(ev *env, o options, stdout io.Writer) error {
	if o.traceOut == "" {
		o.traceOut = fmt.Sprintf("%s/hpmperf-trace-%d.json", os.TempDir(), o.seed)
	}
	sets := make([][]*outcome, o.sets)
	for s := range sets {
		tr := newTracer()
		for _, base := range specs {
			sp, err := specFor(base.name, o)
			if err != nil {
				return err
			}
			from := time.Now()
			out, err := runWorkload(ev, sp, o.seed, o.seconds, true, tr)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			fmt.Fprintf(ev.log, "hpmperf: set %d: %s done in %.1fs (measured %.1fs)\n", s+1, sp.name, time.Since(from).Seconds(), out.measured.Seconds())
			printWorkload(stdout, out)
			sets[s] = append(sets[s], out)
		}
		if err := writeTrace(o.traceOut, fmt.Sprintf("hpmperf seed %d", o.seed), tr); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: %s (open in ui.perfetto.dev)\n", o.traceOut)
	}
	doc, err := json.MarshalIndent(suiteDocument(o, sets[len(sets)-1]), "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", doc)
	var failures []string
	for _, set := range sets {
		for _, out := range set {
			if out.failed > 0 {
				failures = append(failures, fmt.Sprintf("%s: %d of %d operations failed; first: %s", out.name, out.failed, out.attempted, out.first))
			}
		}
	}
	if o.sets > 1 {
		failures = append(failures, compareSets(stdout, sets[0], sets[1])...)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(stdout, "FAIL:", f)
		}
		return fmt.Errorf("%d checks failed", len(failures))
	}
	return nil
}

func writeTrace(path, process string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, process, tr.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
