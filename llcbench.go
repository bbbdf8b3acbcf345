package hierctl

import (
	"fmt"
	"math"
	"time"

	"hierctl/internal/cluster"
	"hierctl/internal/controller"
	"hierctl/internal/llc"
	"hierctl/internal/queue"
)

// LLCBenchRow is one engine's measurement over the §4.3 decision workload:
// total states explored (the paper's controller-overhead metric) and mean
// wall-clock nanoseconds per receding-horizon decision.
type LLCBenchRow struct {
	// Engine identifies the search variant: "naive" (unpruned — the
	// original recursive engine's exploration) or "pruned"
	// (branch-and-bound with the L0 model's completion bound and
	// incumbents).
	Engine        string  `json:"engine"`
	Explored      int     `json:"explored"`
	NsPerDecision float64 `json:"nsPerDecision"`
	// ExploredVsNaive and SpeedupVsNaive compare against the naive row
	// (1 for the naive row itself).
	ExploredVsNaive float64 `json:"exploredVsNaive"`
	SpeedupVsNaive  float64 `json:"speedupVsNaive"`
}

// LLCBenchSnapshot is the BENCH_llc.json payload: the §4.3 configuration
// the engines were driven over and one row per engine. Decisions are
// verified bit-identical across engines before the snapshot is returned.
type LLCBenchSnapshot struct {
	Computers []string      `json:"computers"`
	Horizon   int           `json:"horizon"`
	Samples   int           `json:"samples"`
	Decisions int           `json:"decisions"`
	Rows      []LLCBenchRow `json:"rows"`
}

// RunLLCBench drives the naive and pruned LLC engines over an identical
// sequence of decisions on the paper's §4.3 module (computers C1–C4,
// horizon 3, three uncertainty samples per step) and reports explored
// states and ns/decision per engine. It errors if the pruned engine's
// decision sequence diverges from the naive engine's — the snapshot
// doubles as an equivalence check. Explored is deterministic: two
// generations differ only in the wall-clock columns.
func RunLLCBench(decisions int) (LLCBenchSnapshot, error) {
	if decisions < 1 {
		return LLCBenchSnapshot{}, fmt.Errorf("hierctl: llc bench needs >= 1 decision, got %d", decisions)
	}
	cfg := controller.DefaultL0Config()
	names := []string{"C1", "C2", "C3", "C4"}
	models := make([]llc.Model[queue.State, int], len(names))
	incumbents := make([][][]int, len(names))
	for i, name := range names {
		spec, err := cluster.StandardComputer(i, name)
		if err != nil {
			return LLCBenchSnapshot{}, err
		}
		models[i], incumbents[i], err = controller.NewL0Model(spec, cfg.Horizon)
		if err != nil {
			return LLCBenchSnapshot{}, err
		}
	}

	// The decision workload sweeps queue lengths and a diurnal-ish
	// arrival forecast with the §4.2 uncertainty band, mirroring what
	// the L0 controllers see during the Fig. 4/5 runs.
	const cHat = 0.0175
	const delta = 8.0
	envsFor := func(d int) []([]llc.Env) {
		lam := 40 + 30*math.Sin(float64(d)/9)
		envs := make([]([]llc.Env), cfg.Horizon)
		for q := 0; q < cfg.Horizon; q++ {
			l := lam + 2*float64(q)
			lo := math.Max(0, l-delta)
			envs[q] = []llc.Env{{lo, cHat}, {l, cHat}, {l + delta, cHat}}
		}
		return envs
	}

	// The pruned engine searches as the L0 controller does: with the
	// model's completion bound and its constant-path incumbents (which
	// the naive engine ignores).
	engines := []struct {
		name string
		opt  llc.Options
	}{
		{"naive", llc.Options{}},
		{"pruned", llc.Options{NonNegativeCosts: true}},
	}
	snap := LLCBenchSnapshot{
		Computers: names,
		Horizon:   cfg.Horizon,
		Samples:   3,
		Decisions: decisions * len(models),
	}
	var reference []int
	for _, eng := range engines {
		explored := 0
		chosen := make([]int, 0, decisions*len(models))
		start := time.Now()
		for d := 0; d < decisions; d++ {
			envs := envsFor(d)
			x0 := queue.State{Q: float64((d * 7) % 200)}
			for i, m := range models {
				res, err := llc.Exhaustive(m, x0, envs, eng.opt, incumbents[i]...)
				if err != nil {
					return LLCBenchSnapshot{}, fmt.Errorf("hierctl: llc bench %s: %w", eng.name, err)
				}
				explored += res.Explored
				chosen = append(chosen, res.Inputs[0])
			}
		}
		elapsed := time.Since(start)
		if reference == nil {
			reference = chosen
		} else {
			for i := range reference {
				if chosen[i] != reference[i] {
					return LLCBenchSnapshot{}, fmt.Errorf("hierctl: llc bench %s: decision %d diverged from naive (%d vs %d)",
						eng.name, i, chosen[i], reference[i])
				}
			}
		}
		snap.Rows = append(snap.Rows, LLCBenchRow{
			Engine:        eng.name,
			Explored:      explored,
			NsPerDecision: float64(elapsed.Nanoseconds()) / float64(decisions*len(models)),
		})
	}
	naive := snap.Rows[0]
	for i := range snap.Rows {
		snap.Rows[i].ExploredVsNaive = float64(snap.Rows[i].Explored) / float64(naive.Explored)
		if snap.Rows[i].NsPerDecision > 0 {
			snap.Rows[i].SpeedupVsNaive = naive.NsPerDecision / snap.Rows[i].NsPerDecision
		}
	}
	return snap, nil
}
