package llc_test

// Benchmark of the bounded neighbourhood search on the paper's §4.3
// configuration (computer C4 under the default L0 settings: horizon 3,
// three uncertainty samples per step, eight operating frequencies). The
// exhaustive engines, naive and pruned, are rows of BENCH_llc.json
// (hpmbench -snapshot llc).
//
// Custom metric: explored/decide — states evaluated per decision, the
// paper's §4.3 controller-overhead metric.

import (
	"math"
	"testing"

	"hierctl/internal/cluster"
	"hierctl/internal/controller"
	"hierctl/internal/llc"
	"hierctl/internal/queue"
)

func benchModel(b *testing.B) llc.Model[queue.State, int] {
	b.Helper()
	spec, err := cluster.StandardComputer(3, "C4")
	if err != nil {
		b.Fatal(err)
	}
	m, err := controller.NewL0Model(controller.DefaultL0Config(), spec)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchEnvs(d int) []([]llc.Env) {
	const cHat, delta = 0.0175, 8.0
	lam := 40 + 30*math.Sin(float64(d)/9)
	envs := make([]([]llc.Env), 3)
	for q := range envs {
		l := lam + 2*float64(q)
		lo := math.Max(0, l-delta)
		envs[q] = []llc.Env{{lo, cHat}, {l, cHat}, {l + delta, cHat}}
	}
	return envs
}

// BenchmarkLLCBoundedPruned measures the bounded neighbourhood strategy
// (the L1/L2-style search) under pruning.
func BenchmarkLLCBoundedPruned(b *testing.B) {
	m := benchModel(b)
	neighbours := func(prev int, _ queue.State, _ int) []int {
		out := make([]int, 0, 3)
		for _, u := range []int{prev - 1, prev, prev + 1} {
			if u >= 0 && u < 8 {
				out = append(out, u)
			}
		}
		return out
	}
	explored := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := llc.Bounded[queue.State, int](m, queue.State{Q: float64((i * 7) % 200)}, 4, neighbours, benchEnvs(i), llc.Options{NonNegativeCosts: true})
		if err != nil {
			b.Fatal(err)
		}
		explored += res.Explored
	}
	b.ReportMetric(float64(explored)/float64(b.N), "explored/decide")
}
