package hierctl

import (
	"fmt"
	"time"

	"hierctl/internal/central"
	"hierctl/internal/par"
)

// ScalabilityRow is one line of the EXT3 hierarchical-vs-centralized
// study, quantifying §3's dimensionality argument: the hierarchy's
// per-period search stays flat as the cluster grows, the flat joint
// controller's does not.
type ScalabilityRow struct {
	// Controller is "hierarchical" or "centralized".
	Controller string
	// Computers is the cluster size.
	Computers int
	// ExploredPerPeriod is the states examined per decision period.
	ExploredPerPeriod float64
	// DecideTimePerPeriod is the online computation per period.
	DecideTimePerPeriod time.Duration
	// MeanResponse and Energy verify both controllers do the same job.
	MeanResponse float64
	Energy       float64
}

// RunScalability runs EXT3: the full hierarchy and the flat centralized
// controller on identical clusters of growing size (4, 8, 12, 16
// computers) under the synthetic workload scaled to the cluster. Both
// controllers share cadences, weights, the fluid prediction model, and
// the forecasting substrate, so the comparison isolates control
// decomposition. The sizes are independent runs, so the sweep fans out
// across GOMAXPROCS workers; row order and contents match the sequential
// sweep exactly.
func RunScalability(sizes []int, opts ExperimentOptions) ([]ScalabilityRow, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if len(sizes) == 0 {
		sizes = []int{4, 8, 12, 16}
	}
	for _, n := range sizes {
		if n < 4 || n%4 != 0 {
			return nil, fmt.Errorf("hierctl: scalability sizes must be multiples of 4, got %d", n)
		}
	}
	rows := make([]ScalabilityRow, 2*len(sizes))
	err := par.For(par.Workers(0), len(sizes), func(si int) error {
		n := sizes[si]
		spec, err := StandardCluster(n / 4)
		if err != nil {
			return err
		}
		synth := DefaultSyntheticConfig()
		synth.Seed = opts.Seed
		synth.BaseMin *= float64(n) / 4
		synth.BaseMax *= float64(n) / 4
		fullTrace, err := SyntheticTrace(synth)
		if err != nil {
			return err
		}
		trace := opts.scaleTrace(fullTrace)

		// Hierarchical.
		mgr, err := NewManager(spec, opts.Config())
		if err != nil {
			return err
		}
		store, err := NewStore(opts.Seed, DefaultStoreConfig())
		if err != nil {
			return err
		}
		rec, err := mgr.Run(trace, store)
		if err != nil {
			return err
		}
		// The hierarchy's per-period work: all L0 searches in a T_L1
		// period plus the L1 searches plus the amortized L2 share.
		periods := rec.L1Decisions / max(1, len(spec.Modules))
		explored := float64(rec.L0Explored+rec.L1Explored+rec.L2Explored) / float64(max(1, periods))
		decide := time.Duration(0)
		if periods > 0 {
			decide = (rec.L0Time + rec.L1Time + rec.L2Time) / time.Duration(periods)
		}
		rows[2*si] = ScalabilityRow{
			Controller:          "hierarchical",
			Computers:           n,
			ExploredPerPeriod:   explored,
			DecideTimePerPeriod: decide,
			MeanResponse:        rec.MeanResponse(),
			Energy:              rec.Energy,
		}

		// Centralized.
		ccfg := central.DefaultRunnerConfig()
		ccfg.Seed = opts.Seed
		if opts.Fast {
			ccfg.Controller.NeighbourDepth = 1
		}
		store, err = NewStore(opts.Seed, DefaultStoreConfig())
		if err != nil {
			return err
		}
		cres, err := central.Run(spec, trace, store, ccfg)
		if err != nil {
			return err
		}
		rows[2*si+1] = ScalabilityRow{
			Controller:          "centralized",
			Computers:           n,
			ExploredPerPeriod:   cres.ExploredPerStep,
			DecideTimePerPeriod: cres.DecideTimePerStep,
			MeanResponse:        cres.MeanResponse,
			Energy:              cres.Energy,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
