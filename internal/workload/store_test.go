package workload

import (
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"hierctl/internal/des"
)

// materializedStore is the store as it was built before demands were
// computed: every demand drawn into a table, the samplers over the stream
// where the loop leaves it. Kept as the reference the computed path must
// reproduce bit for bit.
func materializedStore(stream *des.Stream, cfg StoreConfig) (demands []float64, pop, rare *rand.Zipf) {
	rng := rand.New(stream)
	demands = make([]float64, cfg.Objects)
	for i := range demands {
		demands[i] = MinDemand + rng.Float64()*(MaxDemand-MinDemand)
		if cfg.TailFrac > 0 && rng.Float64() < cfg.TailFrac {
			d := MaxDemand * math.Pow(1-rng.Float64(), -1/cfg.TailAlpha)
			if d > cfg.TailCap {
				d = cfg.TailCap
			}
			demands[i] = d
		}
	}
	pop = rand.NewZipf(rng, ZipfS, 1, uint64(cfg.PopularCount-1))
	if n := cfg.Objects - cfg.PopularCount; n > 0 {
		rare = rand.NewZipf(rng, ZipfS, 1, uint64(n-1))
	}
	return demands, pop, rare
}

// checkStoreMatchesReference builds a store and the reference from two
// copies of one stream and compares every demand and the samplers' first
// 1,000 draws — the second proves the stream is left where the table loop
// leaves it.
func checkStoreMatchesReference(t *testing.T, origin des.Stream, cfg StoreConfig) *Store {
	t.Helper()
	a, b := origin, origin
	s, err := NewStore(&a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	demands, pop, rare := materializedStore(&b, cfg)
	if s.Objects() != len(demands) {
		t.Fatalf("Objects() = %d, want %d", s.Objects(), len(demands))
	}
	for i, want := range demands {
		if got := s.Demand(i); got != want {
			t.Fatalf("Demand(%d) = %v, reference %v", i, got, want)
		}
	}
	if (s.rareZipf == nil) != (rare == nil) {
		t.Fatalf("rare sampler present: %v, reference %v", s.rareZipf != nil, rare != nil)
	}
	for i := 0; i < 1000; i++ {
		if got, want := s.popZipf.Uint64(), pop.Uint64(); got != want {
			t.Fatalf("popular sampler draw %d = %d, reference %d", i, got, want)
		}
		if rare == nil {
			continue
		}
		if got, want := s.rareZipf.Uint64(), rare.Uint64(); got != want {
			t.Fatalf("rare sampler draw %d = %d, reference %d", i, got, want)
		}
	}
	return s
}

// TestStoreDemandEqualsMaterialized: a store that keeps no table answers
// exactly as the table did, at every size on both sides of the jump
// table's levels, and a heavy-tail store — whose i-th demand is not the
// i-th draw — still keeps one.
func TestStoreDemandEqualsMaterialized(t *testing.T) {
	for _, objects := range []int{1, 1000, 10000, 65536} {
		for _, seed := range []int64{0, 1, 7, 20060704} {
			cfg := DefaultStoreConfig()
			cfg.Objects = objects
			cfg.PopularCount = max(objects/10, 1)
			s := checkStoreMatchesReference(t, *des.NewStream(seed, "store"), cfg)
			if s.demands != nil {
				t.Errorf("objects %d seed %d: uniform store materialized its demands", objects, seed)
			}
			cfg.TailFrac, cfg.TailAlpha, cfg.TailCap = 0.05, 1.2, 2
			s = checkStoreMatchesReference(t, *des.NewStream(seed, "store"), cfg)
			if s.demands == nil {
				t.Errorf("objects %d seed %d: heavy-tail store did not materialize", objects, seed)
			}
		}
	}
}

// streamDrawingRedrawAt returns a stream whose draw k, counting from 0, is
// a value math/rand's Float64 rounds to 1.0 and draws again: PCG's output
// function inverted for such a value, then the walk run backwards k+1
// steps over math/big.
func streamDrawingRedrawAt(t *testing.T, k int) des.Stream {
	t.Helper()
	inv := func(a uint64) uint64 { // a⁻¹ mod 2^64, a odd: Newton's iteration
		x := a
		for i := 0; i < 6; i++ {
			x *= 2 - a*x
		}
		return x
	}
	const cheapMul, lo = 0xda942042e4dd58b5, 0x9e3779b97f4a7c15
	const out = math.MaxUint64 - 5
	h := out * inv(lo|1)
	h ^= h >> 48
	h *= inv(cheapMul)
	h ^= h >> 32
	target := des.State{Hi: h, Lo: lo}
	if target.Output() != out || unitFloat(out) != 1 {
		t.Fatalf("inverted output: state %v draws %#x (unit %v), want %#x", target, target.Output(), unitFloat(out), uint64(out))
	}

	word := func(s des.State) *big.Int {
		v := new(big.Int).SetUint64(s.Hi)
		return v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(s.Lo))
	}
	mod := new(big.Int).Lsh(big.NewInt(1), 128)
	// One step is s·mul + inc: 0 steps to inc, 1 to mul + inc.
	inc := word(des.State{}.Next())
	mul := word(des.State{Lo: 1}.Next())
	mul.Sub(mul, inc).Mod(mul, mod)
	unmul := new(big.Int).ModInverse(mul, mod)
	v := word(target)
	for i := 0; i <= k; i++ {
		v.Sub(v, inc).Mul(v, unmul).Mod(v, mod)
	}
	state := append([]byte("pcg:"), v.FillBytes(make([]byte, 16))...)
	var s des.Stream
	if err := s.UnmarshalBinary(state); err != nil {
		t.Fatal(err)
	}
	if got := s.State().Jump(uint64(k) + 1); got != target {
		t.Fatalf("stream built for draw %d reaches %v there, want %v", k, got, target)
	}
	return s
}

// TestStoreRedrawFallsBack: a stream that hits Float64's redraw inside the
// demand draws shifts every later index, so the store must notice — storing
// nothing while it looks — and keep the table; one draw later belongs to the
// samplers, and math/rand handles it there.
func TestStoreRedrawFallsBack(t *testing.T) {
	cfg := DefaultStoreConfig()
	for _, k := range []int{0, 4999, cfg.Objects - 1, cfg.Objects} {
		s := checkStoreMatchesReference(t, streamDrawingRedrawAt(t, k), cfg)
		if got, want := s.demands != nil, k < cfg.Objects; got != want {
			t.Errorf("redraw at draw %d of %d: materialized %v, want %v", k, cfg.Objects, got, want)
		}
	}
}

// TestRedrawThreshold: the draws NewStore's check flags are exactly those
// math/rand's Float64 rounds to 1 and draws again.
func TestRedrawThreshold(t *testing.T) {
	if unitFloat(redrawFrom) != 1 || unitFloat(redrawFrom-1) >= 1 || unitFloat(math.MaxUint64) != 1 {
		t.Fatalf("unitFloat(%#x) = %v, unitFloat(%#x) = %v: the threshold is not where Float64 redraws",
			uint64(redrawFrom), unitFloat(redrawFrom), uint64(redrawFrom-1), unitFloat(redrawFrom-1))
	}
}

// TestStoreFootprint: what a default store retains is its locality history
// and two samplers, not a demand table.
func TestStoreFootprint(t *testing.T) {
	const stores = 64
	keep := make([]*Store, stores)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = newTestStore(t, DefaultStoreConfig())
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (after.HeapAlloc - before.HeapAlloc) / stores
	if per >= 24<<10 {
		t.Errorf("a default store retains %d B, want < %d", per, 24<<10)
	}
	runtime.KeepAlive(keep)
}

var demandSink float64

// BenchmarkStoreDemand prices the lookup synthBin makes per request: the
// shipped path, computed through the shared jump table, against a private
// table — hot here, which 512 tenants' 80 KB tables in one daemon are not.
// Ids come from the store's own sampler, so the mix of one- and two-level
// jumps is the workload's.
func BenchmarkStoreDemand(b *testing.B) {
	store, err := NewStore(des.NewStream(1, "store"), DefaultStoreConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(des.NewStream(1, "workload"))
	ids := make([]int, 4096)
	for i := range ids {
		ids[i] = store.Sample(rng)
	}
	table := make([]float64, store.Objects())
	for i := range table {
		table[i] = store.Demand(i)
	}
	b.Run("computed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			demandSink += store.Demand(ids[i%len(ids)])
		}
	})
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			demandSink += table[ids[i%len(ids)]]
		}
	})
}
