package controller

// Flight-recorder pins for the controllers: recording must not change
// decisions (telemetry observes, never steers), the recorder-enabled
// warm paths must hold the same allocation budgets as the disabled ones
// (the ring is preallocated; writing is a struct copy), and each level
// must emit the documented record shapes.

import (
	"math"
	"testing"

	flight "hierctl/internal/obs"
)

func newCtrlRecorder(t *testing.T) *flight.Recorder {
	t.Helper()
	r, err := flight.NewRecorder(256)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestL0DecideZeroAllocWithRecorder(t *testing.T) {
	l0, err := NewL0(DefaultL0Config(), ctrlSpec("alloc-l0-rec"))
	if err != nil {
		t.Fatal(err)
	}
	l0.SetRecorder(newCtrlRecorder(t), 0, 1)
	sc := new(Scratch)
	lambda := make([]float64, 3)
	decide := func(i int) {
		lam := 40 + 30*math.Sin(float64(i)/9)
		lambda[0], lambda[1], lambda[2] = lam, lam+2, lam+4
		if _, _, err := l0.Decide(sc, float64((i*7)%200), lambda, 8, 0.0175); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		decide(i)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		decide(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm recorded L0 decide allocated %v/op, want 0", allocs)
	}
}

func TestL1DecideSteadyStateAllocsWithRecorder(t *testing.T) {
	l1 := newTestL1(t, 4)
	l1.SetRecorder(newCtrlRecorder(t), 0)
	sc := new(Scratch)
	avail := []bool{true, true, true, true}
	queues := make([]float64, 4)
	var on []bool
	decide := func(i int) {
		lam := 60 + 40*math.Sin(float64(i)/9)
		for j := range queues {
			queues[j] = float64((i * (3 + 2*j)) % 80)
		}
		dec, err := l1.Decide(sc, L1Observation{
			QueueLens: queues, On: on, LambdaHat: lam, Delta: 8, CHat: 0.0175, Available: avail,
		})
		if err != nil {
			t.Fatal(err)
		}
		on = dec.Alpha
	}
	for i := 0; i < 20; i++ {
		decide(i)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		decide(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm recorded L1 decide allocated %v/op, want 0", allocs)
	}
}

func TestL2DecideSteadyStateAllocsWithRecorder(t *testing.T) {
	jts := make([]JTilde, 4)
	for i := range jts {
		jts[i] = allocQuadJTilde{scale: 100 + 20*float64(i)}
	}
	l2, err := NewL2(DefaultL2Config(), jts)
	if err != nil {
		t.Fatal(err)
	}
	l2.SetRecorder(newCtrlRecorder(t))
	sc := new(Scratch)
	qavg := make([]float64, 4)
	chat := []float64{0.0175, 0.0175, 0.0175, 0.0175}
	avail := []bool{true, true, true, true}
	decide := func(i int) {
		lam := 200 + 100*math.Sin(float64(i)/9)
		for j := range qavg {
			qavg[j] = float64((i * (3 + 2*j)) % 40)
		}
		if _, err := l2.Decide(sc, L2Observation{
			QAvg: qavg, LambdaHat: lam, Delta: 20, CHat: chat, Available: avail,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		decide(i)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		decide(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm recorded L2 decide allocated %v/op, want 0", allocs)
	}
}

// TestControllerRecorderEquivalence drives identical twin controllers —
// one recording, one not — through the same observation sequence and
// requires bit-identical decisions at every level.
func TestControllerRecorderEquivalence(t *testing.T) {
	l0a, err := NewL0(DefaultL0Config(), ctrlSpec("rec-eq-l0"))
	if err != nil {
		t.Fatal(err)
	}
	l0b, err := NewL0(DefaultL0Config(), ctrlSpec("rec-eq-l0"))
	if err != nil {
		t.Fatal(err)
	}
	l0b.SetRecorder(newCtrlRecorder(t), 0, 0)
	sa, sb := new(Scratch), new(Scratch)
	lambda := make([]float64, 3)
	for i := 0; i < 40; i++ {
		lam := 40 + 30*math.Sin(float64(i)/7)
		lambda[0], lambda[1], lambda[2] = lam, lam+2, lam+4
		q := float64((i * 11) % 150)
		fa, _, err := l0a.Decide(sa, q, lambda, 8, 0.0175)
		if err != nil {
			t.Fatal(err)
		}
		fb, _, err := l0b.Decide(sb, q, lambda, 8, 0.0175)
		if err != nil {
			t.Fatal(err)
		}
		if fa != fb {
			t.Fatalf("L0 step %d: freq %d without recorder, %d with", i, fa, fb)
		}
	}

	l1a := newTestL1(t, 4)
	l1b := newTestL1(t, 4)
	l1b.SetRecorder(newCtrlRecorder(t), 0)
	queues := make([]float64, 4)
	avail := []bool{true, true, true, true}
	var onA, onB []bool
	for i := 0; i < 40; i++ {
		lam := 60 + 40*math.Sin(float64(i)/7)
		for j := range queues {
			queues[j] = float64((i * (5 + 3*j)) % 90)
		}
		avail[i%4] = i%5 != 0
		if countOn(avail) == 0 {
			avail[0] = true
		}
		o := L1Observation{QueueLens: queues, On: onA, LambdaHat: lam, Delta: 8, CHat: 0.0175, Available: avail}
		da, err := l1a.Decide(sa, o)
		if err != nil {
			t.Fatal(err)
		}
		o.On = onB
		db, err := l1b.Decide(sb, o)
		if err != nil {
			t.Fatal(err)
		}
		for j := range da.Alpha {
			if da.Alpha[j] != db.Alpha[j] || da.Gamma[j] != db.Gamma[j] {
				t.Fatalf("L1 step %d computer %d: (%v,%v) without recorder, (%v,%v) with",
					i, j, da.Alpha[j], da.Gamma[j], db.Alpha[j], db.Gamma[j])
			}
		}
		onA, onB = da.Alpha, db.Alpha
	}

	mkL2 := func() *L2 {
		jts := make([]JTilde, 4)
		for i := range jts {
			jts[i] = allocQuadJTilde{scale: 100 + 20*float64(i)}
		}
		l2, err := NewL2(DefaultL2Config(), jts)
		if err != nil {
			t.Fatal(err)
		}
		return l2
	}
	l2a, l2b := mkL2(), mkL2()
	l2b.SetRecorder(newCtrlRecorder(t))
	qavg := make([]float64, 4)
	chat := []float64{0.0175, 0.0175, 0.0175, 0.0175}
	availM := []bool{true, true, true, true}
	for i := 0; i < 40; i++ {
		lam := 200 + 100*math.Sin(float64(i)/7)
		for j := range qavg {
			qavg[j] = float64((i * (3 + 2*j)) % 40)
		}
		o := L2Observation{QAvg: qavg, LambdaHat: lam, Delta: 20, CHat: chat, Available: availM}
		da, err := l2a.Decide(sa, o)
		if err != nil {
			t.Fatal(err)
		}
		db, err := l2b.Decide(sb, o)
		if err != nil {
			t.Fatal(err)
		}
		for j := range da.Gamma {
			if da.Gamma[j] != db.Gamma[j] {
				t.Fatalf("L2 step %d module %d: γ %v without recorder, %v with", i, j, da.Gamma[j], db.Gamma[j])
			}
		}
	}
}

// TestControllerRecordShapes checks the documented record layout: L0
// emits one record per decision; L1 and L2 emit a summary followed by
// per-target detail records that reproduce the returned decision.
func TestControllerRecordShapes(t *testing.T) {
	rec := newCtrlRecorder(t)
	rec.SetTick(9)

	l0, err := NewL0(DefaultL0Config(), ctrlSpec("rec-shape-l0"))
	if err != nil {
		t.Fatal(err)
	}
	l0.SetRecorder(rec, 2, 3)
	freq, _, err := l0.Decide(new(Scratch), 10, []float64{50}, 0, 0.0175)
	if err != nil {
		t.Fatal(err)
	}
	recs := rec.Window(nil, 0)
	if len(recs) != 1 {
		t.Fatalf("L0 decide wrote %d records, want 1", len(recs))
	}
	r0 := recs[0]
	if r0.Level != flight.LevelL0 || r0.Tick != 9 || r0.Module != 2 || r0.Comp != 3 ||
		r0.FreqIdx != int16(freq) || r0.Explored <= 0 || r0.DecideNs <= 0 {
		t.Fatalf("L0 record = %+v (freq %d)", r0, freq)
	}

	l1 := newTestL1(t, 4)
	l1.SetRecorder(rec, 5)
	before := rec.Total()
	dec, err := l1.Decide(new(Scratch), L1Observation{
		QueueLens: []float64{1, 2, 3, 4}, LambdaHat: 80, CHat: 0.0175,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs = rec.Window(nil, 0)
	l1Recs := recs[int(before):]
	if len(l1Recs) != 5 {
		t.Fatalf("L1 decide wrote %d records, want 1 summary + 4 details", len(l1Recs))
	}
	sum := l1Recs[0]
	if sum.Level != flight.LevelL1 || sum.Module != 5 || sum.Comp != -1 ||
		sum.Alpha != packBools(dec.Alpha) || sum.Explored != int32(dec.Explored) || sum.DecideNs <= 0 {
		t.Fatalf("L1 summary = %+v", sum)
	}
	for j, d := range l1Recs[1:] {
		if d.Comp != int16(j) || d.On != dec.Alpha[j] || d.Gamma != dec.Gamma[j] {
			t.Fatalf("L1 detail %d = %+v, decision (%v, %v)", j, d, dec.Alpha[j], dec.Gamma[j])
		}
	}

	// A fully failed module records the degraded all-off decision too.
	before = rec.Total()
	if _, err := l1.Decide(new(Scratch), L1Observation{
		QueueLens: []float64{1, 2, 3, 4}, LambdaHat: 80, CHat: 0.0175,
		Available: []bool{false, false, false, false},
	}); err != nil {
		t.Fatal(err)
	}
	recs = rec.Window(nil, 0)
	degraded := recs[int(before):]
	if len(degraded) != 5 || degraded[0].Alpha != 0 {
		t.Fatalf("degraded L1 decide wrote %+v", degraded)
	}

	jts := make([]JTilde, 3)
	for i := range jts {
		jts[i] = allocQuadJTilde{scale: 100 + 20*float64(i)}
	}
	l2, err := NewL2(DefaultL2Config(), jts)
	if err != nil {
		t.Fatal(err)
	}
	l2.SetRecorder(rec)
	before = rec.Total()
	d2, err := l2.Decide(new(Scratch), L2Observation{
		QAvg: []float64{1, 2, 3}, LambdaHat: 250, CHat: []float64{0.0175, 0.0175, 0.0175},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs = rec.Window(nil, 0)
	l2Recs := recs[int(before):]
	if len(l2Recs) != 4 {
		t.Fatalf("L2 decide wrote %d records, want 1 summary + 3 details", len(l2Recs))
	}
	if l2Recs[0].Level != flight.LevelL2 || l2Recs[0].Module != -1 ||
		l2Recs[0].Explored != int32(d2.Explored) || l2Recs[0].DecideNs <= 0 {
		t.Fatalf("L2 summary = %+v", l2Recs[0])
	}
	for i, d := range l2Recs[1:] {
		if d.Module != int16(i) || d.Gamma != d2.Gamma[i] {
			t.Fatalf("L2 detail %d = %+v, γ %v", i, d, d2.Gamma[i])
		}
	}
}
