// Webfarm: the paper's §5.2 scenario — a 16-computer heterogeneous web
// farm (four modules) serving a World-Cup-98-like day — comparing the
// hierarchical LLC controller against the static all-on configuration and
// a utilization-threshold heuristic on energy and response time.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"hierctl"
)

func main() {
	// A quarter of the WC'98-like day keeps this example snappy; raise
	// bins (or pass 0 for the quarter-day default) for longer runs.
	if err := run(os.Stdout, hierctl.ExperimentOptions{Scale: 1, Seed: 1, Fast: true}, 0); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, opts hierctl.ExperimentOptions, bins int) error {
	spec, err := hierctl.StandardCluster(4) // 4 modules × 4 computers
	if err != nil {
		return err
	}

	wcCfg := hierctl.DefaultWC98Config()
	wcCfg.Seed = opts.Seed
	trace, err := hierctl.WC98Trace(wcCfg)
	if err != nil {
		return err
	}
	if bins <= 0 {
		bins = trace.Len() / 4
	} else if bins > trace.Len() {
		bins = trace.Len()
	}
	trace = trace.Slice(0, bins)

	fmt.Fprintf(w, "cluster: %d computers in %d modules, %d 2-minute intervals\n\n",
		spec.Computers(), len(spec.Modules), trace.Len())

	// Hierarchical LLC.
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
	fmt.Fprintf(w, "%-18s energy %9.0f   mean resp %6.3fs   violations %5.1f%%\n",
		"hierarchical-llc", rec.Energy, rec.MeanResponse(), 100*rec.ViolationFrac)
	llcEnergy := rec.Energy

	// Baselines on the identical workload.
	threshold, err := hierctl.ThresholdPolicy(0.35, 0.8, 1)
	if err != nil {
		return err
	}
	for _, pol := range []hierctl.BaselinePolicy{hierctl.AlwaysOnPolicy(), threshold} {
		store, err := hierctl.NewStore(opts.Seed, hierctl.DefaultStoreConfig())
		if err != nil {
			return err
		}
		bcfg := hierctl.DefaultBaselineConfig()
		bcfg.Seed = opts.Seed
		res, err := hierctl.RunBaseline(spec, pol, trace, store, bcfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-18s energy %9.0f   mean resp %6.3fs   violations %5.1f%%\n",
			res.Policy, res.Energy, res.MeanResponse, 100*res.ViolationFrac)
		if res.Policy == "always-on" && res.Energy > 0 {
			fmt.Fprintf(w, "%-18s (LLC saves %.1f%% vs always-on)\n", "",
				100*(1-llcEnergy/res.Energy))
		}
	}

	fmt.Fprintln(w)
	fmt.Fprint(w, rec.Operational.ASCIIPlot("LLC: operational computers (of 16)", 80, 6))
	for i, g := range rec.GammaModules {
		fmt.Fprint(w, g.ASCIIPlot(fmt.Sprintf("LLC: module %d load fraction", i+1), 80, 4))
	}
	return nil
}
