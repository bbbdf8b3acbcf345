// Failover: inject computer failures mid-run and watch the hierarchy
// adapt — the L1 controller stops routing to failed machines and powers
// surviving ones, and the L2 controller shifts module fractions. The
// paper's introduction names component failure as a core disturbance an
// autonomic manager must absorb.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"hierctl"
)

func main() {
	// 80 minutes of steady load (160 bins of 30 s) so the failure bites.
	if err := run(os.Stdout, hierctl.ExperimentOptions{Scale: 1, Seed: 1, Fast: true}, 160); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, opts hierctl.ExperimentOptions, bins int) error {
	spec, err := hierctl.StandardCluster(2) // 2 modules × 4 computers
	if err != nil {
		return err
	}

	// A steady, moderately heavy load: ~150 req/s across 8 computers.
	trace, err := hierctl.StepTrace(bins, 30, 4500, 4500, bins)
	if err != nil {
		return err
	}

	mgr, err := hierctl.NewManager(spec, opts.Config())
	if err != nil {
		return err
	}

	// Fail two computers of module 1 a third into the run; repair one
	// of them two thirds in.
	third := trace.End() / 3
	failures := []hierctl.FailureEvent{
		{At: third, Module: 0, Comp: 0},
		{At: third, Module: 0, Comp: 1},
		{At: 2 * third, Module: 0, Comp: 0, Repair: true},
	}

	store, err := hierctl.NewStore(opts.Seed, hierctl.DefaultStoreConfig())
	if err != nil {
		return err
	}
	rec, err := mgr.Run(store, hierctl.SessionConfig{Trace: trace, Failures: failures})
	if err != nil {
		return err
	}

	total := int64(trace.Sum())
	fmt.Fprintf(w, "offered requests   : %d\n", total)
	fmt.Fprintf(w, "completed          : %d (%.2f%%)\n", rec.Completed, 100*float64(rec.Completed)/float64(total))
	fmt.Fprintf(w, "dropped by failures: %d\n", rec.Dropped)
	fmt.Fprintf(w, "mean response      : %.3f s (target %.1f s)\n", rec.MeanResponse(), rec.TargetResponse)
	fmt.Fprintf(w, "violations         : %.1f%% of intervals\n", 100*rec.ViolationFrac)
	fmt.Fprintln(w)
	fmt.Fprint(w, rec.Operational.ASCIIPlot("operational computers (failures at 1/3, repair at 2/3)", 80, 6))
	fmt.Fprint(w, rec.ResponseMean.ASCIIPlot("mean response per 30 s (s)", 80, 6))
	return nil
}
