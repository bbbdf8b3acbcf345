package forecast

import (
	"fmt"

	"hierctl/internal/ckpt"
)

// The smoothing constants the controllers run their estimators with.
const (
	// CHatSmoothing is π of the processing-time EWMA (paper §4.3: 0.1).
	CHatSmoothing float64 = 0.1
	// BandSmoothing is the uncertainty band's smoothing constant.
	BandSmoothing float64 = 0.25
)

// EWMA is the exponentially weighted moving-average filter the paper uses
// for processing-time estimation: ĉ(k+1) = π·c(k) + (1−π)·ĉ(k−1) with
// smoothing constant π (the paper uses π = 0.1). Construct with NewEWMA.
type EWMA struct {
	pi      float64
	value   float64
	started bool
}

// NewEWMA returns an EWMA filter with smoothing constant pi in (0, 1].
func NewEWMA(pi float64) (*EWMA, error) {
	if pi <= 0 || pi > 1 {
		return nil, fmt.Errorf("forecast: EWMA smoothing %v outside (0, 1]", pi)
	}
	return &EWMA{pi: pi}, nil
}

// Observe folds a new sample in and returns the updated estimate. The first
// sample initializes the estimate directly.
func (e *EWMA) Observe(x float64) float64 {
	if !e.started {
		e.value, e.started = x, true
		return e.value
	}
	e.value = e.pi*x + (1-e.pi)*e.value
	return e.value
}

// Value returns the current estimate (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }

// Started reports whether at least one sample has been observed.
func (e *EWMA) Started() bool { return e.started }

// Checkpoint appends the estimate; the smoothing constant is the
// constructor's.
func (e *EWMA) Checkpoint(w *ckpt.Writer) {
	w.Float(e.value)
	w.Bool(e.started)
}

// RestoreCheckpoint reads back what Checkpoint wrote.
func (e *EWMA) RestoreCheckpoint(r *ckpt.Reader) {
	e.value = r.Float()
	e.started = r.Bool()
}

// Band tracks the running mean absolute one-step forecast error δ, the
// "uncertainty band" λ̂ ± δ of §4.2 used for chattering mitigation. It is an
// EWMA over |error| so recent accuracy dominates. The zero value is not
// usable; construct with NewBand.
type Band struct {
	ewma *EWMA
}

// NewBand returns an uncertainty-band tracker with the given smoothing
// constant (0 < pi ≤ 1); larger pi adapts faster.
func NewBand(pi float64) (*Band, error) {
	e, err := NewEWMA(pi)
	if err != nil {
		return nil, err
	}
	return &Band{ewma: e}, nil
}

// Observe records a forecast/actual pair and returns the updated δ.
func (b *Band) Observe(forecast, actual float64) float64 {
	err := forecast - actual
	if err < 0 {
		err = -err
	}
	return b.ewma.Observe(err)
}

// Delta returns the current band half-width δ.
func (b *Band) Delta() float64 { return b.ewma.Value() }

// Checkpoint appends the band's state.
func (b *Band) Checkpoint(w *ckpt.Writer) { b.ewma.Checkpoint(w) }

// RestoreCheckpoint reads back what Checkpoint wrote.
func (b *Band) RestoreCheckpoint(r *ckpt.Reader) { b.ewma.RestoreCheckpoint(r) }
