// Command hpmtrain runs and reports the offline simulation-based learning
// phase in isolation: the abstraction map g of each catalogue computer
// (§4.2) and the regression-tree module cost J̃ (§5.1). Useful to inspect
// what the higher-level controllers actually see.
//
// Usage:
//
//	hpmtrain             # learn and summarize g maps + module tree
//	hpmtrain -probe      # additionally print learned costs on a probe grid
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hierctl/internal/cluster"
	"hierctl/internal/controller"
	"hierctl/internal/metrics"
	"hierctl/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hpmtrain:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) (retErr error) {
	fs := flag.NewFlagSet("hpmtrain", flag.ContinueOnError)
	probe := fs.Bool("probe", false, "print learned costs on a probe grid")
	startProfiles := obs.ProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := startProfiles()
	if err != nil {
		return err
	}
	defer stopProfiles(&retErr)

	l0cfg := controller.DefaultL0Config()
	gcfg := controller.DefaultGMapConfig()

	fmt.Fprintln(w, "== abstraction maps g (per catalogue computer, §4.2) ==")
	tab := metrics.NewTable("computer", "freq points", "grid cells", "learn time")
	gmaps := make([]*controller.GMap, 0, 4)
	for kind := 0; kind < 4; kind++ {
		spec, err := cluster.StandardComputer(kind, fmt.Sprintf("C%d", kind+1))
		if err != nil {
			return err
		}
		start := time.Now()
		g, err := controller.LearnGMap(l0cfg, spec, gcfg)
		if err != nil {
			return err
		}
		tab.AddRow(spec.Name, len(spec.FrequenciesHz), g.Cells(), time.Since(start).String())
		gmaps = append(gmaps, g)
	}
	fmt.Fprintln(w, tab)

	if *probe {
		fmt.Fprintln(w, "== g probe: learned per-period cost for C4 ==")
		probeTab := metrics.NewTable("queue", "lambda (r/s)", "cost", "end queue", "resp (s)", "power")
		g := gmaps[3]
		for _, q := range []float64{0, 100, 300} {
			for _, lam := range []float64{10, 50, 90} {
				cost, qe, resp, pw, err := g.Evaluate(q, lam, 0.0175)
				if err != nil {
					return err
				}
				probeTab.AddRow(q, lam, cost, qe, resp, pw)
			}
		}
		fmt.Fprintln(w, probeTab)
	}

	fmt.Fprintln(w, "== module cost tree J̃ (§5.1) ==")
	start := time.Now()
	jt, err := controller.LearnModuleTree(l0cfg, controller.DefaultL1Config(), gmaps, controller.DefaultModuleSimConfig())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "learned in %v\n", time.Since(start))
	if *probe {
		probeTab := metrics.NewTable("qAvg", "module lambda (r/s)", "J̃")
		for _, q := range []float64{0, 40} {
			for _, lam := range []float64{0, 50, 150, 300} {
				v, err := jt.Predict(q, lam, 0.0175)
				if err != nil {
					return err
				}
				probeTab.AddRow(q, lam, v)
			}
		}
		fmt.Fprintln(w, probeTab)
	}
	return nil
}
