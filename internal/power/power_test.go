package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestModelDraw(t *testing.T) {
	m := DefaultModel()
	if got := m.Draw(1, true); math.Abs(got-1.75) > 1e-12 {
		t.Errorf("Draw(1, on) = %v, want 1.75", got)
	}
	if got := m.Draw(0.5, true); math.Abs(got-(0.75+0.25)) > 1e-12 {
		t.Errorf("Draw(0.5, on) = %v, want 1.0", got)
	}
	if got := m.Draw(1, false); got != 0 {
		t.Errorf("Draw(off) = %v, want 0", got)
	}
	if got := m.Draw(0, true); got != 0.75 {
		t.Errorf("Draw(0, on) = %v, want base only", got)
	}
}

func TestModelValidate(t *testing.T) {
	if err := (Model{Base: -1}).Validate(); err == nil {
		t.Error("negative base: want error")
	}
	if err := (Model{Base: 1, SwitchCost: -1}).Validate(); err == nil {
		t.Error("negative switch cost: want error")
	}
	if err := DefaultModel().Validate(); err != nil {
		t.Errorf("default model: %v", err)
	}
}

func TestDrawMonotonicInPhi(t *testing.T) {
	m := DefaultModel()
	f := func(a, b float64) bool {
		pa := math.Abs(math.Mod(a, 1))
		pb := math.Abs(math.Mod(b, 1))
		if pa > pb {
			pa, pb = pb, pa
		}
		return m.Draw(pa, true) <= m.Draw(pb, true)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAccountantEnergy(t *testing.T) {
	a := NewAccountant()
	a.Observe("c1", 0, 2)  // 2 units from t=0
	a.Observe("c1", 10, 0) // 2*10 = 20
	a.Observe("c2", 0, 1)  // 1 unit from t=0
	a.FinishAt(20)         // c1: +0, c2: 1*20 = 20
	if got := a.Energy("c1"); got != 20 {
		t.Errorf("Energy(c1) = %v, want 20", got)
	}
	if got := a.Energy("c2"); got != 20 {
		t.Errorf("Energy(c2) = %v, want 20", got)
	}
	if got := a.TotalEnergy(); got != 40 {
		t.Errorf("TotalEnergy = %v, want 40", got)
	}
	if got := a.Energy("missing"); got != 0 {
		t.Errorf("Energy(missing) = %v, want 0", got)
	}
}

func TestAccountantSwitches(t *testing.T) {
	a := NewAccountant()
	a.RecordSwitch("c1", 8)
	a.RecordSwitch("c1", 8)
	a.RecordSwitch("c2", 8)
	if got := a.TotalSwitches(); got != 3 {
		t.Errorf("TotalSwitches = %d, want 3", got)
	}
	// Transient energy is charged even with no power observations.
	if got := a.Energy("c1"); got != 16 {
		t.Errorf("Energy(c1) = %v, want 16 (transients)", got)
	}
}

func TestAccountantEnergyAdditivity(t *testing.T) {
	// Total energy equals the sum of per-component energies whatever the
	// observation pattern.
	f := func(powers []uint8) bool {
		a := NewAccountant()
		names := []string{"x", "y", "z"}
		for i, p := range powers {
			a.Observe(names[i%3], float64(i), float64(p%50))
		}
		a.FinishAt(float64(len(powers) + 1))
		sum := 0.0
		for _, n := range names {
			sum += a.Energy(n)
		}
		return math.Abs(sum-a.TotalEnergy()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
