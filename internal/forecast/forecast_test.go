package forecast

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewKalmanValidation(t *testing.T) {
	cases := []struct {
		ql, qt, r float64
		ok        bool
	}{
		{1, 1, 1, true},
		{1, 0, 1, true}, // local level model
		{0, 1, 1, false},
		{1, -1, 1, false},
		{1, 1, 0, false},
		{-1, 1, 1, false},
	}
	for _, c := range cases {
		_, err := NewKalman(c.ql, c.qt, c.r)
		if (err == nil) != c.ok {
			t.Errorf("NewKalman(%v,%v,%v) err = %v, want ok=%v", c.ql, c.qt, c.r, err, c.ok)
		}
	}
}

func TestKalmanConvergesToConstant(t *testing.T) {
	kf, err := NewKalman(0.01, 0.001, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		kf.Observe(50)
	}
	if got := kf.Forecast(1); math.Abs(got-50) > 0.5 {
		t.Errorf("Forecast after constant stream = %v, want ≈50", got)
	}
	if math.Abs(kf.Trend()) > 0.1 {
		t.Errorf("Trend = %v, want ≈0", kf.Trend())
	}
}

func TestKalmanTracksLinearTrend(t *testing.T) {
	kf, err := NewKalman(0.1, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		kf.Observe(10 + 2*float64(i))
	}
	// Next value should be ≈ 10 + 2*300.
	if got, want := kf.Forecast(1), 610.0; math.Abs(got-want) > 5 {
		t.Errorf("Forecast = %v, want ≈%v", got, want)
	}
	if got := kf.Trend(); math.Abs(got-2) > 0.2 {
		t.Errorf("Trend = %v, want ≈2", got)
	}
	// Multi-step forecast extrapolates the trend.
	if got, want := kf.Forecast(5), kf.Level()+5*kf.Trend(); got != want {
		t.Errorf("Forecast(5) = %v, want %v", got, want)
	}
}

func TestKalmanForecastBeforeData(t *testing.T) {
	kf, err := NewKalman(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if kf.Forecast(1) != 0 {
		t.Error("Forecast before data should be 0")
	}
	if kf.Steps() != 0 {
		t.Error("Steps before data should be 0")
	}
}

func TestKalmanFirstObservationAnchors(t *testing.T) {
	kf, err := NewKalman(1, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	kf.Observe(1000)
	if got := kf.Level(); math.Abs(got-1000) > 1e-9 {
		t.Errorf("Level after first obs = %v, want 1000", got)
	}
}

// refKalman is a plain textbook predict/update recursion with explicit
// initial state and covariance — the oracle for pinning the anchored
// first-observation semantics.
type refKalman struct {
	qLevel, qTrend, rObs float64
	level, trend         float64
	p                    [2][2]float64
}

func (k *refKalman) observe(y float64) {
	level := k.level + k.trend
	trend := k.trend
	var p [2][2]float64
	p[0][0] = k.p[0][0] + k.p[0][1] + k.p[1][0] + k.p[1][1] + k.qLevel
	p[0][1] = k.p[0][1] + k.p[1][1]
	p[1][0] = k.p[1][0] + k.p[1][1]
	p[1][1] = k.p[1][1] + k.qTrend
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
}

// TestKalmanFirstObservationCovarianceConsistent is the regression test
// for the anchored-start bug: the first observation used to overwrite
// level/trend *after* the gain update, leaving the covariance as if the
// filter had converged through the gain (notably a halved trend
// variance), so early forecasts under-reacted to an emerging trend. The
// filter must now behave exactly like a textbook recursion initialized
// from the anchored state (level = y₀, trend = 0) with the consistent
// covariance diag(rObs, P_trend + qTrend).
func TestKalmanFirstObservationCovarianceConsistent(t *testing.T) {
	for _, params := range [][3]float64{
		{1, 0.1, 10},
		{4, 0.4, 1e5}, // observation noise comparable to the diffuse prior
		{0.5, 0, 2},   // local level model
	} {
		kf, err := NewKalman(params[0], params[1], params[2])
		if err != nil {
			t.Fatal(err)
		}
		obs := []float64{10, 30, 50, 70, 90, 110}
		ref := &refKalman{
			qLevel: params[0], qTrend: params[1], rObs: params[2],
			level: obs[0], trend: 0,
			p: [2][2]float64{{params[2], 0}, {0, 1e6 + params[1]}},
		}
		kf.Observe(obs[0])
		if kf.Level() != ref.level || kf.Trend() != ref.trend {
			t.Fatalf("params %v: anchored state (%v, %v), want (%v, 0)", params, kf.Level(), kf.Trend(), obs[0])
		}
		for step, y := range obs[1:] {
			kf.Observe(y)
			ref.observe(y)
			if kf.Level() != ref.level || kf.Trend() != ref.trend {
				t.Errorf("params %v step %d: state (%v, %v) diverged from consistent recursion (%v, %v)",
					params, step+2, kf.Level(), kf.Trend(), ref.level, ref.trend)
			}
		}
	}
}

// TestKalmanEarlyTrendPickupOnRamp checks the user-visible symptom: on a
// noiseless ramp the filter's trend information is all in the first few
// steps, and with the consistent covariance the two-observation forecast
// must already extrapolate the ramp closely.
func TestKalmanEarlyTrendPickupOnRamp(t *testing.T) {
	kf, err := NewKalman(1, 0.1, 10)
	if err != nil {
		t.Fatal(err)
	}
	kf.Observe(100)
	kf.Observe(120)
	// Third point of the ramp is 140; the trend prior is still diffuse
	// after one observation, so the second must transfer nearly the full
	// +20 step into the trend estimate.
	if got := kf.Forecast(1); math.Abs(got-140) > 1 {
		t.Errorf("Forecast after two ramp points = %v, want ≈140", got)
	}
	if trend := kf.Trend(); math.Abs(trend-20) > 1 {
		t.Errorf("Trend after two ramp points = %v, want ≈20", trend)
	}
}

func TestKalmanForecastClampsHorizon(t *testing.T) {
	kf, _ := NewKalman(1, 0.1, 1)
	kf.Observe(5)
	kf.Observe(6)
	if kf.Forecast(0) != kf.Forecast(1) {
		t.Error("Forecast(0) should behave as Forecast(1)")
	}
}

func TestKalmanBeatsNaiveOnNoisyTrend(t *testing.T) {
	// One-step RMSE of the tuned filter should beat the naive
	// "tomorrow = today" predictor on a noisy trending signal.
	rng := rand.New(rand.NewSource(4))
	n := 400
	signal := make([]float64, n)
	for i := range signal {
		signal[i] = 100 + 3*float64(i) + rng.NormFloat64()*5
	}
	kf, _, err := TuneKalman(signal[:120])
	if err != nil {
		t.Fatal(err)
	}
	var sseK, sseN float64
	prev := signal[119]
	for _, y := range signal[120:] {
		pk := kf.Forecast(1)
		kf.Observe(y)
		dk, dn := pk-y, prev-y
		sseK += dk * dk
		sseN += dn * dn
		prev = y
	}
	if sseK >= sseN {
		t.Errorf("Kalman SSE %v not better than naive %v on trending signal", sseK, sseN)
	}
}

func TestTuneKalmanValidation(t *testing.T) {
	if _, _, err := TuneKalman([]float64{1, 2, 3}); err == nil {
		t.Error("short training set: want error")
	}
	// Constant series must not error out (variance guard).
	kf, rmse, err := TuneKalman(make([]float64, 50))
	if err != nil {
		t.Fatalf("constant series: %v", err)
	}
	if kf == nil || rmse < 0 {
		t.Error("constant series: want valid filter and rmse >= 0")
	}
}

func TestObserveReturnsPriorForecast(t *testing.T) {
	kf, _ := NewKalman(0.1, 0.01, 1)
	kf.Observe(10)
	kf.Observe(12)
	before := kf.Forecast(1)
	prior := kf.Observe(14)
	if prior != before {
		t.Errorf("Observe returned %v, want prior forecast %v", prior, before)
	}
}

func TestEWMAValidation(t *testing.T) {
	for _, pi := range []float64{-0.1, 0, 1.01} {
		if _, err := NewEWMA(pi); err == nil {
			t.Errorf("NewEWMA(%v): want error", pi)
		}
	}
	if _, err := NewEWMA(1); err != nil {
		t.Errorf("NewEWMA(1): %v", err)
	}
}

func TestEWMARecurrence(t *testing.T) {
	e, err := NewEWMA(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Started() {
		t.Error("Started before observation")
	}
	e.Observe(10) // initializes
	if got := e.Value(); got != 10 {
		t.Errorf("initial Value = %v, want 10", got)
	}
	got := e.Observe(20) // 0.1*20 + 0.9*10 = 11
	if math.Abs(got-11) > 1e-12 {
		t.Errorf("Value = %v, want 11", got)
	}
}

func TestEWMABoundedByInputRange(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(n uint8) bool {
		e, err := NewEWMA(0.3)
		if err != nil {
			return false
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < int(n%100)+1; i++ {
			x := rng.Float64()*200 - 100
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
			e.Observe(x)
		}
		return e.Value() >= lo-1e-9 && e.Value() <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBandTracksAbsoluteError(t *testing.T) {
	b, err := NewBand(1) // pi=1: band equals last |error|
	if err != nil {
		t.Fatal(err)
	}
	b.Observe(10, 13)
	if got := b.Delta(); got != 3 {
		t.Errorf("Delta = %v, want 3", got)
	}
	b.Observe(10, 6)
	if got := b.Delta(); got != 4 {
		t.Errorf("Delta = %v, want 4", got)
	}
}

func TestBandNonNegative(t *testing.T) {
	b, err := NewBand(0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		b.Observe(rng.NormFloat64()*10, rng.NormFloat64()*10)
		if b.Delta() < 0 {
			t.Fatalf("Delta went negative: %v", b.Delta())
		}
	}
}

func TestBandValidation(t *testing.T) {
	if _, err := NewBand(0); err == nil {
		t.Error("NewBand(0): want error")
	}
}
