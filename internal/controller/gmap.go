package controller

import (
	"fmt"

	"hierctl/internal/approx"
	"hierctl/internal/cluster"
	"hierctl/internal/queue"
)

// GMapConfig parameterizes the learning grid of the abstraction map g
// (§4.2): the quantized domains of the computer state (queue length), the
// environment inputs (arrival rate, processing time), and the number of
// L0 periods per L1 period the closed loop is simulated for.
type GMapConfig struct {
	// QMax and QStep bound and quantize the queue-length dimension.
	QMax, QStep float64
	// LambdaMax and LambdaStep bound and quantize the per-computer
	// arrival-rate dimension (requests/second).
	LambdaMax, LambdaStep float64
	// CMin, CMax and CStep bound and quantize the processing-time
	// dimension (seconds at full speed).
	CMin, CMax, CStep float64
	// SubSteps is l = T_L1/T_L0, the number of L0 decisions simulated
	// per cell (paper: 4).
	SubSteps int
}

// DefaultGMapConfig returns a grid sized for the paper's workloads.
func DefaultGMapConfig() GMapConfig {
	return GMapConfig{
		QMax: 400, QStep: 20,
		LambdaMax: 300, LambdaStep: 15,
		CMin: 0.010, CMax: 0.026, CStep: 0.004,
		SubSteps: 4,
	}
}

// Validate reports whether the configuration is usable.
func (c GMapConfig) Validate() error {
	if c.QMax <= 0 || c.QStep <= 0 {
		return fmt.Errorf("controller: gmap queue grid (%v, %v) invalid", c.QMax, c.QStep)
	}
	if c.LambdaMax <= 0 || c.LambdaStep <= 0 {
		return fmt.Errorf("controller: gmap lambda grid (%v, %v) invalid", c.LambdaMax, c.LambdaStep)
	}
	if c.CMin <= 0 || c.CMax < c.CMin || c.CStep <= 0 {
		return fmt.Errorf("controller: gmap c grid (%v, %v, %v) invalid", c.CMin, c.CMax, c.CStep)
	}
	if c.SubSteps < 1 {
		return fmt.Errorf("controller: gmap substeps %d < 1", c.SubSteps)
	}
	return nil
}

// GMap is the learned abstraction map g of one computer under its L0
// controller (§4.2): a quantized lookup table from (queue length, arrival
// rate, processing time) to the average closed-loop cost over one L1
// period, the end-of-period queue length, the average achieved response
// time, and the average power draw. Construct with LearnGMap.
type GMap struct {
	table *approx.Table
	cfg   GMapConfig
	spec  cluster.ComputerSpec
}

// gMap output columns.
const (
	gColCost = iota
	gColQEnd
	gColResp
	gColPower
	gColWidth
)

// LearnGMap performs the offline simulation-based learning of §4.2:
// for every grid cell it simulates the L0-controlled fluid model for
// SubSteps periods under constant environment inputs and stores the
// aggregate outcome.
func LearnGMap(l0cfg L0Config, spec cluster.ComputerSpec, cfg GMapConfig) (*GMap, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l0, err := NewL0(l0cfg, spec)
	if err != nil {
		return nil, err
	}
	quant, err := approx.NewQuantizer(
		[]float64{0, 0, cfg.CMin},
		[]float64{cfg.QMax, cfg.LambdaMax, cfg.CMax},
		[]float64{cfg.QStep, cfg.LambdaStep, cfg.CStep},
	)
	if err != nil {
		return nil, err
	}
	table, err := approx.NewTable(quant, gColWidth)
	if err != nil {
		return nil, err
	}
	g := &GMap{table: table, cfg: cfg, spec: spec}

	var sc l0Scratch
	levels := [][]float64{quant.Levels(0), quant.Levels(1), quant.Levels(2)}
	err = approx.Grid(levels, func(p []float64) error {
		q0, lambda, c := p[0], p[1], p[2]
		cost, qEnd, resp, pw, err := g.simulateCell(l0, &sc, q0, lambda, c)
		if err != nil {
			return err
		}
		return table.Add(p, []float64{cost, qEnd, resp, pw})
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// simulateCell runs the closed L0 loop on the fluid model for one L1
// period with constant environment inputs, through the L0's search in sc.
func (g *GMap) simulateCell(l0 *L0, sc *l0Scratch, q0, lambda, c float64) (avgCost, qEnd, avgResp, avgPower float64, err error) {
	state := queue.State{Q: q0}
	lam := [1]float64{lambda}
	var costSum, respSum, powerSum float64
	for step := 0; step < g.cfg.SubSteps; step++ {
		res, err := l0.search(sc, state.Q, lam[:], 0, c)
		if err != nil {
			return 0, 0, 0, 0, fmt.Errorf("controller: L0 search: %w", err)
		}
		phi := g.spec.Phi(res.Inputs[0])
		next, err := queue.Step(state, queue.Params{
			Lambda: lambda,
			C:      c / g.spec.SpeedFactor,
			Phi:    phi,
			T:      PeriodL0,
		})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		psi := g.spec.Power.Draw(phi, true)
		costSum += stageCost(next.R, psi)
		respSum += next.R
		powerSum += psi
		state = next
	}
	n := float64(g.cfg.SubSteps)
	return costSum / n, state.Q, respSum / n, powerSum / n, nil
}

// Evaluate looks up the learned outcome for the given (queue length,
// arrival rate, processing time). Points outside the grid are clamped to
// its boundary cells, so overload queries saturate rather than miss.
func (g *GMap) Evaluate(q0, lambda, c float64) (cost, qEnd, resp, power float64, err error) {
	return g.EvaluateInto(nil, q0, lambda, c)
}

// EvaluateInto is Evaluate probing the table through caller-owned scratch
// (capacity ≥ 4): with scratch supplied the probe performs no allocation —
// one index into the dense grid, no intermediate point or output slice
// (pinned by TestGMapEvaluateIntoZeroAlloc). The map itself is
// read-only here, so distinct callers may share one GMap as long as each
// brings its own scratch.
func (g *GMap) EvaluateInto(scratch []float64, q0, lambda, c float64) (cost, qEnd, resp, power float64, err error) {
	x := [3]float64{q0, lambda, c}
	out, ok, err := g.table.LookupInto(scratch, x[:])
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if !ok {
		// The learning sweep populates every grid cell, so a miss means
		// a NaN coordinate.
		return 0, 0, 0, 0, fmt.Errorf("controller: gmap cell missing for (%v, %v, %v)", q0, lambda, c)
	}
	return out[gColCost], out[gColQEnd], out[gColResp], out[gColPower], nil
}

// axis returns dimension d of the map's grid — 0 the queue length, 1 the
// arrival rate, 2 the processing time — whose Index is the coordinate
// Evaluate keys on.
func (g *GMap) axis(d int) approx.Axis { return g.table.Quantizer().Axis(d) }

// levels returns the number of grid levels along dimension d.
func (g *GMap) levels(d int) int { return g.table.Levels(d) }

// cellInto is EvaluateInto for the cell at grid indices (qi, li, ci)
// (see axis), returning its cost and end-of-period queue; ok is false for
// an unlearned cell.
func (g *GMap) cellInto(scratch []float64, qi, li, ci int) (cost, qEnd float64, ok bool) {
	out, ok := g.table.LookupCell(scratch, (qi*g.levels(1)+li)*g.levels(2)+ci)
	if !ok {
		return 0, 0, false
	}
	return out[gColCost], out[gColQEnd], true
}

// Cells returns the number of learned cells.
func (g *GMap) Cells() int { return g.table.Cells() }

// Spec returns the computer spec the map was learned for.
func (g *GMap) Spec() cluster.ComputerSpec { return g.spec }
