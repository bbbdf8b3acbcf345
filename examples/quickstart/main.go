// Quickstart: run the paper's §4.3 module (computers C1..C4 of Fig. 3)
// under two hours of the synthetic diurnal workload with the full
// three-level hierarchy, then print what happened.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"hierctl"
)

func main() {
	// Two hours of the trace (240 bins of 30 s) at the paper's full
	// learning grids.
	if err := run(os.Stdout, hierctl.ExperimentOptions{Scale: 1, Seed: 1}, 240); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, opts hierctl.ExperimentOptions, bins int) error {
	// The §4.3 cluster: one module with the four Fig. 3 computers.
	spec, err := hierctl.StandardModuleCluster()
	if err != nil {
		return err
	}

	// The paper's controller settings: T_L0 = 30 s, N_L0 = 3, T_L1 = 2 min,
	// r* = 4 s, Q = 100, R = 1, W = 8. NewManager performs the offline
	// simulation-based learning of the abstraction maps (§4.2).
	mgr, err := hierctl.NewManager(spec, opts.Config())
	if err != nil {
		return err
	}

	// A slice of the §4.3 synthetic trace and the 10 000-object virtual
	// store with Zipf popularity.
	traceCfg := hierctl.DefaultSyntheticConfig()
	trace, err := hierctl.SyntheticTrace(traceCfg)
	if err != nil {
		return err
	}
	if bins > trace.Len() {
		bins = trace.Len()
	}
	trace = trace.Slice(0, bins)
	store, err := hierctl.NewStore(opts.Seed, hierctl.DefaultStoreConfig())
	if err != nil {
		return err
	}

	rec, err := mgr.Run(store, hierctl.SessionConfig{Trace: trace})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "requests completed : %d\n", rec.Completed)
	fmt.Fprintf(w, "mean response      : %.3f s (target %.1f s)\n", rec.MeanResponse(), rec.TargetResponse)
	fmt.Fprintf(w, "target met in      : %.1f%% of intervals\n", 100*(1-rec.ViolationFrac))
	fmt.Fprintf(w, "energy consumed    : %.1f units\n", rec.Energy)
	fmt.Fprintf(w, "computers on (avg) : %.2f of %d\n", rec.Operational.Mean(), spec.Computers())
	fmt.Fprintf(w, "map probes per L1  : %.0f (the paper's search examines ≈858 states for m=4)\n", rec.ExploredPerL1Decision())
	fmt.Fprintf(w, "control time/period: %v (paper: ≈2 s in MATLAB)\n", rec.DecisionTimePerPeriod())
	fmt.Fprintln(w)
	fmt.Fprint(w, rec.Operational.ASCIIPlot("operational computers over time", 80, 5))
	return nil
}
