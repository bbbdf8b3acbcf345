package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"hierctl/internal/des"
	"hierctl/internal/race"
)

func newTestStore(t *testing.T, cfg StoreConfig) *Store {
	t.Helper()
	s, err := NewStore(des.NewStream(1, "store"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreConfigValidation(t *testing.T) {
	base := DefaultStoreConfig()
	if err := base.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*StoreConfig){
		func(c *StoreConfig) { c.Objects = 0 },
		// One past what the int32 locality history can hold.
		func(c *StoreConfig) { c.Objects = math.MaxInt32; c.Objects++ },
		func(c *StoreConfig) { c.PopularCount = 0 },
		func(c *StoreConfig) { c.PopularCount = c.Objects + 1 },
		func(c *StoreConfig) { c.PopularShare = 1.5 },
		func(c *StoreConfig) { c.MinDemand = 0 },
		func(c *StoreConfig) { c.MaxDemand = c.MinDemand / 2 },
		func(c *StoreConfig) { c.ZipfS = 1.0 },
		func(c *StoreConfig) { c.LocalityProb = 1.0 },
		func(c *StoreConfig) { c.LogSigma = -1 },
		func(c *StoreConfig) { c.HistoryCap = 0 },
	}
	for i, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: want validation error", i)
		}
	}
}

func TestStoreDemandsInRange(t *testing.T) {
	cfg := DefaultStoreConfig()
	s := newTestStore(t, cfg)
	if s.Objects() != cfg.Objects {
		t.Fatalf("Objects = %d, want %d", s.Objects(), cfg.Objects)
	}
	sum := 0.0
	for id := 0; id < s.Objects(); id++ {
		d := s.Demand(id)
		if d < cfg.MinDemand || d > cfg.MaxDemand {
			t.Fatalf("Demand(%d) = %v outside [%v, %v]", id, d, cfg.MinDemand, cfg.MaxDemand)
		}
		sum += d
	}
	mean := sum / float64(s.Objects())
	want := (cfg.MinDemand + cfg.MaxDemand) / 2
	if math.Abs(mean-want) > 0.002 {
		t.Errorf("mean demand = %v, want ≈%v", mean, want)
	}
}

func TestStorePopularPartitionDominates(t *testing.T) {
	cfg := DefaultStoreConfig()
	cfg.LocalityProb = 0 // isolate the partition split
	s := newTestStore(t, cfg)
	rng := rand.New(rand.NewSource(2))
	const n = 200000
	popular := 0
	for i := 0; i < n; i++ {
		if s.Sample(rng) < cfg.PopularCount {
			popular++
		}
	}
	frac := float64(popular) / n
	if math.Abs(frac-cfg.PopularShare) > 0.02 {
		t.Errorf("popular fraction = %v, want ≈%v", frac, cfg.PopularShare)
	}
}

func TestStoreZipfSkewWithinPopular(t *testing.T) {
	cfg := DefaultStoreConfig()
	cfg.LocalityProb = 0
	s := newTestStore(t, cfg)
	rng := rand.New(rand.NewSource(3))
	counts := make(map[int]int)
	const n = 100000
	for i := 0; i < n; i++ {
		id := s.Sample(rng)
		if id < cfg.PopularCount {
			counts[id]++
		}
	}
	// Rank 0 should dominate: far more requests than the median popular
	// object — the Zipf skew the paper relies on.
	var freqs []int
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	if len(freqs) < 10 {
		t.Fatalf("too few distinct popular objects sampled: %d", len(freqs))
	}
	if freqs[0] < 10*freqs[len(freqs)/2] {
		t.Errorf("top object %d not ≫ median %d: popularity not Zipf-skewed", freqs[0], freqs[len(freqs)/2])
	}
}

func TestStoreTemporalLocalityIncreasesRepeats(t *testing.T) {
	repeatRate := func(localityProb float64, seed int64) float64 {
		cfg := DefaultStoreConfig()
		cfg.LocalityProb = localityProb
		s := newTestStore(t, cfg)
		rng := rand.New(rand.NewSource(seed))
		recent := make(map[int]bool)
		var window []int
		repeats, total := 0, 0
		for i := 0; i < 50000; i++ {
			id := s.Sample(rng)
			if recent[id] {
				repeats++
			}
			total++
			window = append(window, id)
			recent[id] = true
			if len(window) > 100 {
				old := window[0]
				window = window[1:]
				stillThere := false
				for _, w := range window {
					if w == old {
						stillThere = true
						break
					}
				}
				if !stillThere {
					delete(recent, old)
				}
			}
		}
		return float64(repeats) / float64(total)
	}
	withLocality := repeatRate(0.5, 4)
	withoutLocality := repeatRate(0, 4)
	if withLocality <= withoutLocality {
		t.Errorf("locality did not increase repeat rate: %v <= %v", withLocality, withoutLocality)
	}
}

func TestSyntheticTraceShape(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	tr, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != cfg.Bins {
		t.Fatalf("Len = %d, want %d", tr.Len(), cfg.Bins)
	}
	if tr.Min() < 0 {
		t.Errorf("negative arrivals: %v", tr.Min())
	}
	// Scaled peak should approach BaseMax*ScaleFactor (Fig. 4: ≈5000/bin).
	if max := tr.Max(); max < 3000 || max > 8000 {
		t.Errorf("peak = %v, want within [3000, 8000] (Fig. 4 shape)", max)
	}
	// Diurnal variation: max/min of the smoothed structure is large.
	smooth := tr.Smooth(101)
	if ratio := smooth.Max() / math.Max(smooth.Min(), 1); ratio < 3 {
		t.Errorf("peak/trough ratio = %v, want >= 3 (time-of-day variation)", ratio)
	}
}

func TestSyntheticNoiseSegmentsEscalate(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	tr, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	noiseStd := func(from, to int) float64 {
		seg := tr.Slice(from, to)
		smooth := seg.Smooth(21)
		var sum float64
		for i := range seg.Values {
			d := seg.Values[i] - smooth.Values[i]
			sum += d * d
		}
		return math.Sqrt(sum / float64(seg.Len()))
	}
	s1 := noiseStd(100, 1100)
	s3 := noiseStd(4200, 6300)
	if s3 <= s1 {
		t.Errorf("noise did not escalate across segments: seg1 %v, seg3 %v", s1, s3)
	}
}

func TestSyntheticDeterministicPerSeed(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	a, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("same seed diverged at bin %d", i)
		}
	}
	cfg.Seed = 99
	c, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Values {
		if a.Values[i] != c.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestSyntheticConfigValidation(t *testing.T) {
	base := DefaultSyntheticConfig()
	mutations := []func(*SyntheticConfig){
		func(c *SyntheticConfig) { c.Bins = 0 },
		func(c *SyntheticConfig) { c.BinSeconds = 0 },
		func(c *SyntheticConfig) { c.BaseMax = c.BaseMin - 1 },
		func(c *SyntheticConfig) { c.ScaleFactor = 0 },
		func(c *SyntheticConfig) { c.NoiseSigma = []float64{1} },
		func(c *SyntheticConfig) { c.NoiseBounds = []int{500, 400, 6400} },
	}
	for i, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if _, err := Synthetic(cfg); err == nil {
			t.Errorf("mutation %d: want error", i)
		}
	}
}

func TestWC98Shape(t *testing.T) {
	cfg := DefaultWC98Config()
	tr, err := WorldCup98Like(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != cfg.Bins {
		t.Fatalf("Len = %d, want %d", tr.Len(), cfg.Bins)
	}
	if tr.Min() < 0 {
		t.Error("negative arrivals")
	}
	// Peak near configured peak, in the later middle of the day (Fig. 6).
	maxIdx, maxVal := 0, 0.0
	for i, v := range tr.Values {
		if v > maxVal {
			maxIdx, maxVal = i, v
		}
	}
	if maxVal < 0.85*cfg.Peak {
		t.Errorf("peak %v too low, want ≈%v", maxVal, cfg.Peak)
	}
	if frac := float64(maxIdx) / float64(cfg.Bins); frac < 0.5 || frac > 0.85 {
		t.Errorf("peak at fraction %v, want within [0.5, 0.85]", frac)
	}
	// Early trough well below the peak.
	early := tr.Slice(0, cfg.Bins/5)
	if early.Min() > 0.35*maxVal {
		t.Errorf("early trough %v not ≪ peak %v", early.Min(), maxVal)
	}
}

func TestWC98Validation(t *testing.T) {
	cfg := DefaultWC98Config()
	cfg.Peak = 0
	if _, err := WorldCup98Like(cfg); err == nil {
		t.Error("zero peak: want error")
	}
	cfg = DefaultWC98Config()
	cfg.NoiseSigma = -1
	if _, err := WorldCup98Like(cfg); err == nil {
		t.Error("negative noise: want error")
	}
}

func TestStepLoad(t *testing.T) {
	tr, err := StepLoad(10, 30, 5, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 5, 5, 50, 50, 50, 5, 5, 5, 50}
	for i, w := range want {
		if tr.Values[i] != w {
			t.Errorf("bin %d = %v, want %v", i, tr.Values[i], w)
		}
	}
	if _, err := StepLoad(0, 30, 5, 50, 3); err == nil {
		t.Error("zero bins: want error")
	}
	if _, err := StepLoad(10, 30, 50, 5, 3); err == nil {
		t.Error("hi < lo: want error")
	}
}

func TestGeneratorProducesTraceCounts(t *testing.T) {
	tr, err := StepLoad(5, 30, 10, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	store := newTestStore(t, DefaultStoreConfig())
	gen, err := NewGenerator(tr, store, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if gen.Bins() != 5 || gen.BinSeconds() != 30 {
		t.Fatalf("Bins/BinSeconds = %d/%v", gen.Bins(), gen.BinSeconds())
	}
	total := 0
	for {
		bin, reqs, ok := gen.NextBin()
		if !ok {
			break
		}
		want := int(tr.Values[bin])
		if len(reqs) != want {
			t.Errorf("bin %d: %d requests, want %d", bin, len(reqs), want)
		}
		total += len(reqs)
		lo, hi := tr.TimeAt(bin), tr.TimeAt(bin)+tr.Step
		prev := lo
		for _, r := range reqs {
			if r.Arrival < lo || r.Arrival >= hi {
				t.Fatalf("bin %d: arrival %v outside [%v, %v)", bin, r.Arrival, lo, hi)
			}
			if r.Arrival < prev {
				t.Fatal("arrivals not sorted")
			}
			prev = r.Arrival
			if r.Demand <= 0 {
				t.Fatal("non-positive demand")
			}
		}
	}
	if total != int(tr.Sum()) {
		t.Errorf("total requests %d, want %v", total, tr.Sum())
	}
	// Exhausted generator keeps returning ok=false.
	if _, _, ok := gen.NextBin(); ok {
		t.Error("exhausted generator returned ok=true")
	}
	gen.Reset()
	if _, reqs, ok := gen.NextBin(); !ok || len(reqs) != 10 {
		t.Error("Reset did not rewind generator")
	}
}

func TestGeneratorValidation(t *testing.T) {
	store := newTestStore(t, DefaultStoreConfig())
	rng := rand.New(rand.NewSource(1))
	if _, err := NewGenerator(nil, store, rng); err == nil {
		t.Error("nil trace: want error")
	}
	tr, _ := StepLoad(3, 30, 1, 2, 1)
	if _, err := NewGenerator(tr, nil, rng); err == nil {
		t.Error("nil store: want error")
	}
	if _, err := NewGenerator(tr, store, nil); err == nil {
		t.Error("nil rng: want error")
	}
}

func TestFeedMatchesGeneratorBitForBit(t *testing.T) {
	// The online feed pushed a trace's counts must reproduce the batch
	// generator's request stream exactly: same objects, demands, and
	// arrival times, bin by bin.
	cfg := DefaultStoreConfig()
	cfg.Objects = 400
	cfg.PopularCount = 40
	trace, err := StepLoad(12, 30, 50, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	trace.Start = 90 // non-zero start must not break the alignment
	genStore := newTestStore(t, cfg)
	feedStore := newTestStore(t, cfg)
	gen, err := NewGenerator(trace, genStore, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	feed, err := NewFeed(trace.Start, trace.Step, feedStore, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for {
		wantBin, want, ok := gen.NextBin()
		if !ok {
			break
		}
		gotBin, got := feed.Push(trace.Values[wantBin])
		if gotBin != wantBin {
			t.Fatalf("bin index %d, want %d", gotBin, wantBin)
		}
		if len(got) != len(want) {
			t.Fatalf("bin %d: %d requests, want %d", wantBin, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("bin %d request %d: %+v, want %+v", wantBin, i, got[i], want[i])
			}
		}
	}
	if feed.Bins() != trace.Len() {
		t.Errorf("feed ingested %d bins, want %d", feed.Bins(), trace.Len())
	}
}

func TestFeedValidation(t *testing.T) {
	store := newTestStore(t, DefaultStoreConfig())
	rng := rand.New(rand.NewSource(1))
	if _, err := NewFeed(0, 0, store, rng); err == nil {
		t.Error("zero bin width: want error")
	}
	if _, err := NewFeed(0, 30, nil, rng); err == nil {
		t.Error("nil store: want error")
	}
	if _, err := NewFeed(0, 30, store, nil); err == nil {
		t.Error("nil rng: want error")
	}
	feed, err := NewFeed(0, 30, store, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, reqs := feed.Push(-5); len(reqs) != 0 {
		t.Errorf("negative count produced %d requests", len(reqs))
	}
	if feed.BinSeconds() != 30 {
		t.Errorf("bin seconds = %v, want 30", feed.BinSeconds())
	}
}

// TestFeedPushSteadyStateZeroAlloc pins the feed's steady state under a
// varying count series, rising and falling, in both of its cycles: a Push
// per bin reusing the one batch the feed keeps, and a Push and Release per
// bin borrowing from the shared pools. After one warm-up pass the batches
// have met every bin size and the store's locality history its final size, so
// a further pass allocates nothing. (A constant series hides capacity
// clipped to the current bin: every bin then fits the previous one's
// buffers.)
func TestFeedPushSteadyStateZeroAlloc(t *testing.T) {
	store, err := NewStore(des.NewStream(3, "store"), DefaultStoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	feed, err := NewFeed(0, 30, store, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	series := []float64{400, 620, 12, 900, 150, 5, 480, 760, 30, 240, 880, 9, 330, 560, 700, 60}
	for _, released := range []bool{false, true} {
		pass := func() {
			for _, c := range series {
				feed.Push(c)
				if released {
					feed.Release()
				}
			}
		}
		pass()
		if released && feed.batch != nil {
			t.Fatalf("a released feed holds a %d-request batch, want none", cap(*feed.batch))
		}
		allocs := testing.AllocsPerRun(20, pass)
		if released && race.Enabled {
			continue // the race detector's pool drops Puts
		}
		if allocs != 0 {
			t.Fatalf("Feed.Push (released %v) allocates in steady state: %v allocs per %d-bin pass, want 0", released, allocs, len(series))
		}
	}
}

// TestFeedBatchFollowsBin: a released batch goes back to the pool of its
// size class and a bin borrows only from its own, so two feeds stepped in
// turn — one at the wc98 day's plateau of some 60,000 requests a bin, one
// at a few dozen — each keep reusing a batch of their own size and
// allocate nothing once warm, and after one outsized bin no later small
// bin holds its batch.
func TestFeedBatchFollowsBin(t *testing.T) {
	store := newTestStore(t, DefaultStoreConfig())
	big, err := NewFeed(0, 120, store, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewFeed(0, 30, store, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	small.Release() // holding nothing: a no-op
	plateau := []float64{58000, 61500, 60200, 62600, 59100}
	light := []float64{40, 12, 55, 30, 9}
	pass := func() {
		for i := range plateau {
			big.Push(plateau[i])
			big.Release()
			small.Push(light[i])
			small.Release()
		}
	}
	pass()
	allocs := testing.AllocsPerRun(5, pass)
	if allocs != 0 && !race.Enabled { // the race detector's pools drop Puts
		t.Fatalf("interleaved plateau and light feeds: %v allocs per %d-bin pass, want 0", allocs, 2*len(plateau))
	}
	const outsized = 1 << 20
	if _, reqs := small.Push(outsized); len(reqs) != outsized {
		t.Fatalf("outsized bin: %d requests, want %d", len(reqs), outsized)
	}
	small.Release()
	for _, c := range light {
		small.Push(c)
		if held := cap(*small.batch); held >= outsized {
			t.Fatalf("a %g-request bin borrowed the outsized bin's %d-request batch", c, held)
		}
		small.Release()
	}
}

// TestStoreHistoryAllocatedOnce: the locality history has its final
// capacity from NewStore on — sampling past the cap (where remember drops
// the oldest half) never regrows it, so a long-lived tenant does not pay
// append growth on the measured path.
func TestStoreHistoryAllocatedOnce(t *testing.T) {
	cfg := DefaultStoreConfig()
	store, err := NewStore(des.NewStream(3, "store"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := cap(store.history); got != cfg.HistoryCap+1 {
		t.Fatalf("history capacity %d after NewStore, want %d", got, cfg.HistoryCap+1)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 3*cfg.HistoryCap; i++ {
		store.Sample(rng)
	}
	if got := cap(store.history); got != cfg.HistoryCap+1 {
		t.Fatalf("history capacity grew to %d, want %d", got, cfg.HistoryCap+1)
	}
}
