// Package power implements the energy model of §4.1 of the paper: an
// operating computer draws a constant base cost a plus dynamic power
// φ² where φ = u/u_max is the frequency scaling factor (the model of Sinha
// and Chandrakasan adopted by the paper), and switching a computer on incurs
// a transient cost. The package is the price list and nothing else: each
// cluster.Computer integrates its own draw and books its own switches
// (Computer.Energy, Computer.Switches; Plant.TotalEnergy sums them). Small
// as it is, it stays a package because both sides of the loop use it — the
// controllers price candidate states through ComputerSpec.Power (the L0
// stage cost, the g-map and module-simulation cells, the centralized
// search) and the plant bills through the same value — so the formula
// belongs to neither.
package power

import "fmt"

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
