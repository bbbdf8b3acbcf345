// Package forecast implements the workload-estimation substrate of the
// framework: a Kalman filter over a local linear trend structural model
// (the ARIMA-style predictor of §4.1 of the paper), an exponentially
// weighted moving-average (EWMA) filter for request processing times, a
// running uncertainty band |actual − forecast| used by the L1 controller's
// chattering mitigation, and a grid tuner that fits filter noise parameters
// on a workload prefix as §4.3 prescribes.
package forecast

import (
	"fmt"
	"math"

	"hierctl/internal/ckpt"
)

// Kalman is a two-state Kalman filter over the local linear trend model
//
//	level(k+1) = level(k) + trend(k) + w_l,   w_l ~ N(0, QLevel)
//	trend(k+1) = trend(k)            + w_t,   w_t ~ N(0, QTrend)
//	obs(k)     = level(k)            + v,     v   ~ N(0, RObs)
//
// which is the structural-time-series equivalent of the ARIMA forecasting
// set-up the paper implements with a Kalman filter. Construct with
// NewKalman; the zero value is not usable.
type Kalman struct {
	// Model noise parameters.
	qLevel, qTrend, rObs float64

	// State estimate [level, trend] and covariance.
	level, trend float64
	p            [2][2]float64

	steps int
}

// NewKalman returns a filter with the given process noise variances
// (qLevel, qTrend) and observation noise variance (rObs). Non-positive
// variances are an error except qTrend, which may be zero for a local level
// model.
func NewKalman(qLevel, qTrend, rObs float64) (*Kalman, error) {
	if qLevel <= 0 {
		return nil, fmt.Errorf("forecast: qLevel %v must be > 0", qLevel)
	}
	if qTrend < 0 {
		return nil, fmt.Errorf("forecast: qTrend %v must be >= 0", qTrend)
	}
	if rObs <= 0 {
		return nil, fmt.Errorf("forecast: rObs %v must be > 0", rObs)
	}
	k := &Kalman{qLevel: qLevel, qTrend: qTrend, rObs: rObs}
	// Diffuse-ish prior: large uncertainty so early observations dominate.
	k.p = [2][2]float64{{1e6, 0}, {0, 1e6}}
	return k, nil
}

// Observe folds a new measurement into the filter (predict + update) and
// returns the one-step-ahead forecast made *before* this observation, which
// is what forecast-error tracking needs.
func (k *Kalman) Observe(y float64) (priorForecast float64) {
	priorForecast = k.level + k.trend

	if k.steps == 0 {
		// First observation: anchor the state directly instead of
		// running the gain update against the diffuse prior. The
		// covariance must be reset consistently with the anchored state:
		// one observation pins the level to within the observation noise
		// (variance rObs) but carries no information about the trend,
		// whose prior (plus process noise) survives untouched, with no
		// level/trend cross-covariance. Running the gain update and then
		// overwriting the state would leave p as if the filter had
		// converged through the gain — in particular a roughly halved
		// trend variance — making the next few forecasts under-react to
		// the emerging trend.
		k.level = y
		k.trend = 0
		k.p = [2][2]float64{{k.rObs, 0}, {0, k.p[1][1] + k.qTrend}}
		k.steps++
		return priorForecast
	}

	// Predict.
	level := k.level + k.trend
	trend := k.trend
	var p [2][2]float64
	p[0][0] = k.p[0][0] + k.p[0][1] + k.p[1][0] + k.p[1][1] + k.qLevel
	p[0][1] = k.p[0][1] + k.p[1][1]
	p[1][0] = k.p[1][0] + k.p[1][1]
	p[1][1] = k.p[1][1] + k.qTrend

	// Update with H = [1 0].
	s := p[0][0] + k.rObs
	k0 := p[0][0] / s
	k1 := p[1][0] / s
	innov := y - level
	k.level = level + k0*innov
	k.trend = trend + k1*innov
	k.p[0][0] = (1 - k0) * p[0][0]
	k.p[0][1] = (1 - k0) * p[0][1]
	k.p[1][0] = p[1][0] - k1*p[0][0]
	k.p[1][1] = p[1][1] - k1*p[0][1]

	k.steps++
	return priorForecast
}

// Forecast returns the h-step-ahead prediction (h ≥ 1) from the current
// state: level + h·trend. Before any observation it returns 0.
func (k *Kalman) Forecast(h int) float64 {
	if k.steps == 0 {
		return 0
	}
	if h < 1 {
		h = 1
	}
	return k.level + float64(h)*k.trend
}

// Level returns the current level estimate.
func (k *Kalman) Level() float64 { return k.level }

// Trend returns the current trend estimate.
func (k *Kalman) Trend() float64 { return k.trend }

// Steps returns the number of observations folded in so far.
func (k *Kalman) Steps() int { return k.steps }

// Checkpoint appends the filter's state estimate, covariance and step
// count; its noise parameters are the constructor's and are not written.
func (k *Kalman) Checkpoint(w *ckpt.Writer) {
	w.Float(k.level)
	w.Float(k.trend)
	w.Float(k.p[0][0])
	w.Float(k.p[0][1])
	w.Float(k.p[1][0])
	w.Float(k.p[1][1])
	w.Int(int64(k.steps))
}

// RestoreCheckpoint reads back what Checkpoint wrote.
func (k *Kalman) RestoreCheckpoint(r *ckpt.Reader) {
	k.level = r.Float()
	k.trend = r.Float()
	k.p[0][0] = r.Float()
	k.p[0][1] = r.Float()
	k.p[1][0] = r.Float()
	k.p[1][1] = r.Float()
	k.steps = r.IntIn(0, math.MaxInt32, "kalman steps")
}

// Params returns the filter's noise parameters (qLevel, qTrend, rObs),
// e.g. to instantiate fresh filters with tuned settings.
func (k *Kalman) Params() (qLevel, qTrend, rObs float64) {
	return k.qLevel, k.qTrend, k.rObs
}

// TuneKalman grid-searches (qLevel, qTrend, rObs) multipliers around the
// signal's variance to minimize one-step-ahead RMSE on the training series,
// mirroring the paper's "parameters of the Kalman filter were first tuned
// using an initial portion of the workload". It returns the fitted filter
// (already warmed on train) and the achieved RMSE.
func TuneKalman(train []float64) (*Kalman, float64, error) {
	if len(train) < 8 {
		return nil, 0, fmt.Errorf("forecast: need >= 8 training points, got %d", len(train))
	}
	mean, varr := 0.0, 0.0
	for _, v := range train {
		mean += v
	}
	mean /= float64(len(train))
	for _, v := range train {
		varr += (v - mean) * (v - mean)
	}
	varr /= float64(len(train))
	if varr <= 0 {
		varr = 1
	}

	grid := []float64{1e-4, 1e-3, 1e-2, 1e-1, 1}
	bestRMSE := math.Inf(1)
	var bestQ, bestT, bestR float64
	for _, ql := range grid {
		for _, qt := range grid {
			for _, r := range []float64{1e-2, 1e-1, 1, 10} {
				kf, err := NewKalman(ql*varr, qt*varr*0.1, r*varr)
				if err != nil {
					return nil, 0, err
				}
				sse := 0.0
				n := 0
				for i, y := range train {
					pred := kf.Observe(y)
					if i >= 4 { // skip burn-in
						d := pred - y
						sse += d * d
						n++
					}
				}
				rmse := math.Sqrt(sse / float64(n))
				if rmse < bestRMSE {
					bestRMSE, bestQ, bestT, bestR = rmse, ql*varr, qt*varr*0.1, r*varr
				}
			}
		}
	}
	kf, err := NewKalman(bestQ, bestT, bestR)
	if err != nil {
		return nil, 0, err
	}
	for _, y := range train {
		kf.Observe(y)
	}
	return kf, bestRMSE, nil
}
