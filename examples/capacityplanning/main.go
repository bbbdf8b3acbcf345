// Capacityplanning: use the simulator as a what-if tool — sweep cluster
// sizes (1..4 modules) against the same World-Cup-98-like day and report
// which configuration meets the response-time target at the least energy.
// §5.2 mentions the cluster was sized "after capacity planning for the
// workload of interest"; this example shows that planning step.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"hierctl"
)

func main() {
	// An eighth of the day (75 two-minute bins around the morning rise)
	// keeps the sweep fast while covering low and high load.
	if err := run(os.Stdout, hierctl.ExperimentOptions{Scale: 1, Seed: 1, Fast: true}, 75, 4); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, opts hierctl.ExperimentOptions, bins, maxModules int) error {
	wcCfg := hierctl.DefaultWC98Config()
	trace, err := hierctl.WC98Trace(wcCfg)
	if err != nil {
		return err
	}
	start := trace.Len() / 4
	if start+bins > trace.Len() {
		bins = trace.Len() - start
	}
	trace = trace.Slice(start, start+bins)

	fmt.Fprintln(w, "modules computers   energy  mean resp  violations  verdict")
	for p := 1; p <= maxModules; p++ {
		spec, err := hierctl.StandardCluster(p)
		if err != nil {
			return err
		}
		mgr, err := hierctl.NewManager(spec, opts.Config())
		if err != nil {
			return err
		}
		store, err := hierctl.NewStore(opts.Seed, hierctl.DefaultStoreConfig())
		if err != nil {
			return err
		}
		rec, err := mgr.Run(store, hierctl.SessionConfig{Trace: trace})
		if err != nil {
			return err
		}
		verdict := "meets r*"
		if rec.ViolationFrac > 0.10 {
			verdict = "UNDER-PROVISIONED"
		}
		fmt.Fprintf(w, "%7d %9d %8.0f %9.3fs %10.1f%%  %s\n",
			p, spec.Computers(), rec.Energy, rec.MeanResponse(), 100*rec.ViolationFrac, verdict)
	}
	fmt.Fprintln(w, "\nPick the smallest cluster whose violation fraction stays low —")
	fmt.Fprintln(w, "the hierarchy then earns the energy savings at run time.")
	return nil
}
