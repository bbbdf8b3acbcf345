// Package power implements the energy model of §4.1 of the paper: an
// operating computer draws a constant base cost a plus dynamic power
// φ² where φ = u/u_max is the frequency scaling factor (the model of Sinha
// and Chandrakasan adopted by the paper), and switching a computer on incurs
// a transient cost. The package also provides per-computer energy and
// switch accounting for experiment reports.
package power

import (
	"fmt"

	"hierctl/internal/metrics"
)

// Model holds the power-model parameters for one computer.
type Model struct {
	// Base is the constant cost a drawn whenever the computer is on
	// (power supply, disk, ...). The paper uses a = 0.75.
	Base float64
	// SwitchCost is the transient cost W charged when the computer powers
	// on, expressed in the same abstract units; the paper uses W = 8.
	SwitchCost float64
}

// DefaultModel returns the paper's parameters: a = 0.75, W = 8.
func DefaultModel() Model { return Model{Base: 0.75, SwitchCost: 8} }

// Validate reports whether the parameters are usable.
func (m Model) Validate() error {
	if m.Base < 0 {
		return fmt.Errorf("power: base cost %v < 0", m.Base)
	}
	if m.SwitchCost < 0 {
		return fmt.Errorf("power: switch cost %v < 0", m.SwitchCost)
	}
	return nil
}

// Draw returns the instantaneous power drawn at frequency scaling factor
// phi ∈ [0, 1]: a + φ² while on, 0 while off. Booting computers draw the
// base cost only (they serve nothing, so φ = 0).
func (m Model) Draw(phi float64, on bool) float64 {
	if !on {
		return 0
	}
	return m.Base + phi*phi
}

// Accountant integrates energy and counts power-state switches for a set of
// named components (computers). The zero value is not usable; construct
// with NewAccountant.
type Accountant struct {
	integrals map[string]*metrics.TimeWeighted
	switches  map[string]int
	transient map[string]float64
	order     []string
}

// NewAccountant returns an empty accountant.
func NewAccountant() *Accountant {
	return &Accountant{
		integrals: make(map[string]*metrics.TimeWeighted),
		switches:  make(map[string]int),
		transient: make(map[string]float64),
	}
}

func (a *Accountant) integral(name string) *metrics.TimeWeighted {
	tw, ok := a.integrals[name]
	if !ok {
		tw = &metrics.TimeWeighted{}
		a.integrals[name] = tw
		a.order = append(a.order, name)
	}
	return tw
}

// Observe records that component name draws power w from simulation time t
// onward (piecewise-constant). Calls per component must be in time order.
func (a *Accountant) Observe(name string, t, w float64) {
	a.integral(name).Observe(t, w)
}

// RecordSwitch counts one power-on of the component and charges its
// transient cost.
func (a *Accountant) RecordSwitch(name string, cost float64) {
	a.integral(name) // ensure component is registered
	a.switches[name]++
	a.transient[name] += cost
}

// FinishAt closes all integrals at time t.
func (a *Accountant) FinishAt(t float64) {
	for _, tw := range a.integrals {
		tw.FinishAt(t)
	}
}

// Energy returns the accumulated energy (power integral plus transient
// switching costs) of one component.
func (a *Accountant) Energy(name string) float64 {
	tw, ok := a.integrals[name]
	if !ok {
		return 0
	}
	return tw.Total() + a.transient[name]
}

// TotalEnergy sums energy across all components.
func (a *Accountant) TotalEnergy() float64 {
	sum := 0.0
	for _, name := range a.order {
		sum += a.Energy(name)
	}
	return sum
}

// TotalSwitches sums power-ons across all components.
func (a *Accountant) TotalSwitches() int {
	sum := 0
	for _, n := range a.switches {
		sum += n
	}
	return sum
}
