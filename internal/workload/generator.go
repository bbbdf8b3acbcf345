package workload

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"

	"hierctl/internal/ckpt"
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
		buf = make([]Request, 0, max(2*cap(buf), n)) //hpm:alloc geometric batch growth; a Generator's batch settles at the largest bin it served
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
//
// The batch a Push fills is borrowed from pools every feed in the process
// shares and is held until Release, so a feed that is released after every
// bin holds no batch between bins and one outsized bin pins nothing.
type Feed struct {
	store *Store
	rng   *rand.Rand
	start float64
	step  float64
	next  int
	// batch is the borrowed batch buffer, nil between Release and Push.
	batch *[]Request
}

// batchPools[k] holds released batches of at least 1<<k requests. A bin
// borrows from the class its count rounds up to, so a steady bin of any
// size reuses one batch, feeds of different sizes never trade batches, and
// a batch no bin of its class asks for again — an outsized bin's — is
// freed by the collector like any idle pooled buffer.
var batchPools [bits.UintSize]sync.Pool

// borrowBatch returns a pooled batch with room for n requests, or a new
// one of n rounded up to a power of two.
func borrowBatch(n int) *[]Request {
	k := bits.Len(uint(max(n, 1) - 1))
	if b, ok := batchPools[k].Get().(*[]Request); ok {
		return b
	}
	b := make([]Request, 0, 1<<k)
	return &b
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

// Checkpoint appends the feed's position: the bins pushed so far. Its
// random stream belongs to whoever built the feed and is not written, and
// a feed is checkpointed between bins, holding no batch.
func (f *Feed) Checkpoint(w *ckpt.Writer) { w.Int(int64(f.next)) }

// RestoreCheckpoint reads back what Checkpoint wrote, releasing any batch.
func (f *Feed) RestoreCheckpoint(r *ckpt.Reader) {
	f.Release()
	f.next = r.IntIn(0, maxBins, "bins")
}

// maxBins bounds a restored feed's bin count: far past any run, and far
// from overflowing the tick count a harness derives from it.
const maxBins = 1 << 40

// Push ingests the next bin's arrival count and returns the bin index and
// its synthesized requests, sorted by arrival time. The returned slice is
// the feed's batch: valid until the next Push or Release, which reuse it;
// callers that retain requests must copy them.
//
//hpm:hotpath
func (f *Feed) Push(count float64) (bin int, reqs []Request) {
	bin = f.next
	f.next++
	n := int(count + 0.5)
	if f.batch == nil || cap(*f.batch) < n {
		f.Release()
		f.batch = borrowBatch(n)
	}
	*f.batch = synthBin(*f.batch, n, f.start+float64(bin)*f.step, f.step, f.store, f.rng)
	return bin, *f.batch
}

// Release hands the batch the last Push returned back to the shared pools;
// the slice must not be used afterwards. A feed that is never released
// keeps reusing its batch, trading it for a larger one when a bin outgrows
// it. Releasing a feed that holds none is a no-op.
func (f *Feed) Release() {
	if f.batch == nil {
		return
	}
	batchPools[bits.Len(uint(cap(*f.batch)))-1].Put(f.batch)
	f.batch = nil
}
