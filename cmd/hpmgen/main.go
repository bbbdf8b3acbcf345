// Command hpmgen generates, inspects, and lists workload scenario traces.
// Traces are emitted as CSV (time_s,value rows) on stdout or into a file;
// the same files replay as first-class scenarios via "tracefile:<path>".
//
// Usage:
//
//	hpmgen -list                         # enumerate registered scenarios
//	hpmgen -profile synthetic            # §4.3 trace, 6400 30-second bins
//	hpmgen -profile wc98 -out day.csv    # Fig. 6 World-Cup-98-like day
//	hpmgen -profile flashcrowd -seed 7   # any registered scenario
//	hpmgen -profile heavytail -inspect   # summary stats instead of CSV
//	hpmgen -profile tracefile:day.csv -inspect
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hierctl"
	"hierctl/internal/metrics"
	"hierctl/internal/obs"
	"hierctl/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hpmgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (retErr error) {
	fs := flag.NewFlagSet("hpmgen", flag.ContinueOnError)
	profile := fs.String("profile", "synthetic", "scenario to build (see -list; tracefile:<path> replays a CSV)")
	out := fs.String("out", "", "output file (default stdout)")
	seed := fs.Int64("seed", 1, "noise seed")
	list := fs.Bool("list", false, "list the registered scenarios and exit")
	inspect := fs.Bool("inspect", false, "print a scenario summary (bins, load stats, failure plan) instead of CSV")
	startProfiles := obs.ProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := startProfiles()
	if err != nil {
		return err
	}
	defer stopProfiles(&retErr)

	if *list {
		return listScenarios(stdout)
	}

	sc, err := hierctl.LookupScenario(*profile)
	if err != nil {
		return err
	}
	trace, err := sc.Trace(*seed)
	if err != nil {
		return err
	}

	if *inspect {
		return inspectScenario(stdout, sc, trace)
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return trace.WriteCSV(w)
}

// listScenarios renders the registry as an aligned table.
func listScenarios(w io.Writer) error {
	tab := metrics.NewTable("scenario", "sized for", "description")
	for _, sc := range hierctl.Scenarios() {
		name := sc.Name
		if sc.NeedsArg {
			name += ":<path>"
		}
		sized := "-"
		if sc.Computers > 0 {
			sized = fmt.Sprintf("%d computers", sc.Computers)
		}
		tab.AddRow(name, sized, sc.Description)
	}
	fmt.Fprintln(w, tab)
	return nil
}

// inspectScenario prints the scenario's shape without emitting the CSV.
func inspectScenario(w io.Writer, sc hierctl.Scenario, trace *hierctl.Series) error {
	fmt.Fprintf(w, "scenario      %s\n", sc.Name)
	if sc.Arg != "" {
		fmt.Fprintf(w, "source        %s\n", sc.Arg)
	}
	fmt.Fprintf(w, "description   %s\n", sc.Description)
	fmt.Fprintf(w, "bins          %d x %.0f s (%.1f h)\n", trace.Len(), trace.Step, (trace.End()-trace.Start)/3600)
	fmt.Fprintf(w, "requests      %.0f total\n", trace.Sum())
	fmt.Fprintf(w, "per bin       mean %.0f, min %.0f, max %.0f\n", trace.Mean(), trace.Min(), trace.Max())
	if sc.Computers > 0 {
		fmt.Fprintf(w, "sized for     %d computers\n", sc.Computers)
	}
	plan := sc.FailurePlan(trace)
	fmt.Fprintf(w, "failure plan  %d events\n", len(plan))
	for _, f := range plan {
		kind := "fail"
		if f.Repair {
			kind = "repair"
		}
		fmt.Fprintf(w, "  t=%-8.0f %-6s module %d computer %d\n", f.At, kind, f.Module, f.Comp)
	}
	store := sc.StoreConfig()
	if store.TailFrac > 0 {
		fmt.Fprintf(w, "service mix   %.0f%% Pareto tail (alpha %.2f, cap %.2f s) over U(%.0f, %.0f) ms\n",
			100*store.TailFrac, store.TailAlpha, store.TailCap, 1000*workload.MinDemand, 1000*workload.MaxDemand)
	} else {
		fmt.Fprintf(w, "service mix   U(%.0f, %.0f) ms\n", 1000*workload.MinDemand, 1000*workload.MaxDemand)
	}
	return nil
}
