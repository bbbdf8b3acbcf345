package workload

import (
	"fmt"
	"math/rand"

	"hierctl/internal/series"
)

// Request is one generated service request: the 16 bytes the plant queues.
// Which store object it asked for is looked up at synthesis and not carried.
type Request struct {
	// Arrival is the absolute arrival time in simulation seconds.
	Arrival float64
	// Demand is the full-speed processing time in seconds.
	Demand float64
}

// Generator turns a binned arrival trace and a store into per-bin batches
// of individual requests. Batches are generated lazily so multi-million
// request traces never exist in memory at once. Construct with NewGenerator.
type Generator struct {
	trace *series.Series
	store *Store
	rng   *rand.Rand
	next  int
	buf   []Request
}

// NewGenerator returns a generator over the trace using the store for
// object sampling and rng for arrival-offset and routing randomness.
func NewGenerator(trace *series.Series, store *Store, rng *rand.Rand) (*Generator, error) {
	if trace == nil || trace.Len() == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	if store == nil {
		return nil, fmt.Errorf("workload: nil store")
	}
	if rng == nil {
		return nil, fmt.Errorf("workload: nil rng")
	}
	return &Generator{trace: trace, store: store, rng: rng}, nil
}

// Bins returns the number of bins in the underlying trace.
func (g *Generator) Bins() int { return g.trace.Len() }

// BinSeconds returns the trace bin width in seconds.
func (g *Generator) BinSeconds() float64 { return g.trace.Step }

// Trace returns the underlying arrival-count series.
func (g *Generator) Trace() *series.Series { return g.trace }

// NextBin generates the requests of the next bin, sorted by arrival time,
// and reports the bin index. It returns ok=false once the trace is
// exhausted. The returned slice is reused by subsequent calls; callers that
// retain requests must copy them.
func (g *Generator) NextBin() (bin int, reqs []Request, ok bool) {
	if g.next >= g.trace.Len() {
		return 0, nil, false
	}
	bin = g.next
	g.next++
	n := int(g.trace.Values[bin] + 0.5)
	g.buf = synthBin(g.buf, n, g.trace.TimeAt(bin), g.trace.Step, g.store, g.rng)
	return bin, g.buf, true
}

// Reset rewinds the generator to the first bin. The RNG stream is not
// rewound; use a fresh generator for bit-identical replay.
func (g *Generator) Reset() { g.next = 0 }

// synthBin fills buf with n requests for the bin starting at start, born in
// arrival order: each request draws its object — honouring the store's
// popularity and locality state — and then an exponential gap to the
// previous arrival; one closing gap and one pass rescale the running sums
// onto the bin, start + t_k·step/t_{n+1}, which are the order statistics of
// n uniform offsets (exponential spacings), so nothing is sorted. The i-th
// sampled object is the i-th arrival: the store's lognormal temporal
// locality (§4.3's Barford & Crovella reference) reaches the dispatcher in
// the order it was drawn. An empty bin — n <= 0, a negative count is one —
// draws nothing. Generator and Feed share this one code path — including the exact RNG call sequence — which
// is what makes a pushed count stream reproduce a pre-materialized trace
// bit-for-bit.
//
//hpm:hotpath
func synthBin(buf []Request, n int, start, step float64, store *Store, rng *rand.Rand) []Request {
	if cap(buf) < n {
		// At least double, so growth is amortized across bins.
		buf = make([]Request, 0, max(2*cap(buf), n)) //hpm:alloc geometric batch growth; settles at the peak bin
	}
	buf = buf[:0]
	if n <= 0 {
		return buf
	}
	t := 0.0
	for i := 0; i < n; i++ {
		obj := store.Sample(rng)
		t += rng.ExpFloat64()
		buf = append(buf, Request{Arrival: t, Demand: store.Demand(obj)})
	}
	scale := step / (t + rng.ExpFloat64())
	for i := range buf {
		buf[i].Arrival = start + buf[i].Arrival*scale
	}
	return buf
}

// Feed is the push-driven counterpart of Generator for online operation:
// instead of walking a pre-materialized trace, callers stream arrival
// counts one bin at a time (e.g. from live observations) and the feed
// synthesizes that bin's requests on the spot. A Feed pushed the values of
// a trace produces the same request stream as a Generator over that trace
// under the same store and RNG. Construct with NewFeed.
type Feed struct {
	store *Store
	rng   *rand.Rand
	start float64
	step  float64
	next  int
	buf   []Request
}

// NewFeed returns a feed whose bin i covers [start+i*binSeconds,
// start+(i+1)*binSeconds).
func NewFeed(start, binSeconds float64, store *Store, rng *rand.Rand) (*Feed, error) {
	if binSeconds <= 0 {
		return nil, fmt.Errorf("workload: bin width %v <= 0", binSeconds)
	}
	if store == nil {
		return nil, fmt.Errorf("workload: nil store")
	}
	if rng == nil {
		return nil, fmt.Errorf("workload: nil rng")
	}
	return &Feed{store: store, rng: rng, start: start, step: binSeconds}, nil
}

// Bins returns the number of bins pushed so far.
func (f *Feed) Bins() int { return f.next }

// BinSeconds returns the bin width in seconds.
func (f *Feed) BinSeconds() float64 { return f.step }

// Push ingests the next bin's arrival count and returns the bin index and
// its synthesized requests, sorted by arrival time. The returned slice is
// reused by subsequent calls; callers that retain requests must copy them.
//
//hpm:hotpath
func (f *Feed) Push(count float64) (bin int, reqs []Request) {
	bin = f.next
	f.next++
	f.buf = synthBin(f.buf, int(count+0.5), f.start+float64(bin)*f.step, f.step, f.store, f.rng)
	return bin, f.buf
}
