package engine

import (
	"fmt"
	"testing"

	"hierctl/internal/cluster"
	flight "hierctl/internal/obs"
	"hierctl/internal/race"
)

// fixedPolicy dispatches uniformly through settings it built once in
// Init, so whatever a tick allocates is the harness's own.
type fixedPolicy struct {
	st Settings
}

func (p *fixedPolicy) Name() string { return "fixed" }

func (p *fixedPolicy) Init(plant *cluster.Plant) error {
	p.st.GammaModules = make([]float64, plant.Modules())
	p.st.GammaComputers = make([][]float64, plant.Modules())
	for i := range p.st.GammaComputers {
		p.st.GammaModules[i] = 1
		p.st.GammaComputers[i] = make([]float64, plant.ModuleSize(i))
		for j := range p.st.GammaComputers[i] {
			p.st.GammaComputers[i][j] = 1
		}
	}
	return nil
}

func (p *fixedPolicy) Decide(int, int) (Settings, error)          { return p.st, nil }
func (p *fixedPolicy) Observe(int, Interval, []ModuleStats) error { return nil }

// TestHarnessTickSteadyStateAllocs pins the mechanics of one observation
// bin — feed synthesis, spreading, dispatch, the plant's request-level
// advance and the per-module harvest — at zero allocations in steady
// state, on a single-module and a 4-module plant, with the flight
// recorder on and off. The count series varies (a constant one would hide
// buffers sized to the current bin). One pass over it warms every buffer
// the series itself bounds — the pooled batch, the harvest — but not
// necessarily enough pooled queue blocks: the computers hold their shares
// of a tick's dispatch, a draw of the dispatch stream that can set a new
// peak on any pass. What bounds it is the tick's whole dispatch landing on
// every computer at once, so the warm-up queues the peak bin on each; it
// drains in the first tick and leaves its blocks in the pool. Between bins
// the harness holds no batch.
func TestHarnessTickSteadyStateAllocs(t *testing.T) {
	series := []float64{400, 620, 12, 900, 150, 5, 480, 760, 30, 240, 880, 9, 330, 560, 700, 60}
	for _, modules := range []int{1, 4} {
		for _, recorded := range []bool{false, true} {
			t.Run(fmt.Sprintf("modules=%d/recorder=%v", modules, recorded), func(t *testing.T) {
				var spec cluster.Spec
				for i := 0; i < modules; i++ {
					m, err := cluster.StandardModule(fmt.Sprintf("M%d", i+1), fmt.Sprintf("m%d", i+1))
					if err != nil {
						t.Fatal(err)
					}
					spec.Modules = append(spec.Modules, m)
				}
				cfg := testConfig(spec, 0)
				if recorded {
					rec, err := flight.NewRecorder(256)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Recorder = rec
					cfg.QoSTarget = 4
				}
				h, err := New(cfg, testStore(t), &fixedPolicy{})
				if err != nil {
					t.Fatal(err)
				}
				pass := func() {
					for _, c := range series {
						if err := h.PushBin(c * float64(modules)); err != nil {
							t.Fatal(err)
						}
						for d := 0; d < h.SubSteps(); d++ {
							if err := h.Tick(); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				peak := 0.0
				for _, c := range series {
					peak = max(peak, c*float64(modules))
				}
				plant := h.Plant()
				for i := 0; i < plant.Modules(); i++ {
					for j := 0; j < plant.ModuleSize(i); j++ {
						for n := 0; n < int(peak); n++ {
							plant.Computer(i, j).Enqueue(plant.Now(), 1e-6)
						}
					}
				}
				pass()
				if h.batch != nil {
					t.Fatalf("between bins the harness holds a %d-request batch, want none", len(h.batch))
				}
				allocs := testing.AllocsPerRun(10, pass)
				if allocs != 0 && !race.Enabled { // the race detector's pools drop Puts
					t.Fatalf("%v allocs per %d-bin pass in steady state, want 0", allocs, len(series))
				}
			})
		}
	}
}
