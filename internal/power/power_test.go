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
