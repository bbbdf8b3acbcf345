package metrics

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file is a minimal Prometheus text-exposition registry — counters,
// gauges and fixed-bucket histograms with labels, rendered in the v0.0.4
// text format — so hpmserve can expose labeled series without pulling in
// a client library. It deliberately supports only what the repo needs:
// registration-time validation, label vectors keyed by value tuples, and
// a single renderer (AppendText, which WriteText writes out) that emits
// `# HELP` and `# TYPE` exactly once per family with escaped help text and
// label values. Everything a line needs that does not change — the
// escaped headers, label pairs and le values — is rendered once, when its
// family or series is created, so a render only copies bytes and formats
// numbers with strconv, and allocates nothing once its buffer is grown.
//
// Concurrency: a Registry and its instruments are safe for concurrent
// use. A render takes the same locks, so a scrape sees a consistent
// point-in-time view of each family (not across families, which
// Prometheus does not require).

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

type familyKind int

const (
	counterKind familyKind = iota
	gaugeKind
	histogramKind
)

func (k familyKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled member of a family. Counter/gauge use value;
// histograms use buckets/count/sum (buckets holds per-bucket counts for
// the family's bounds; observations above the last bound only appear in
// count and sum, i.e. the implicit +Inf bucket).
type series struct {
	// key is the label values joined by 0xff: the family's map key and the
	// order series render in.
	key string
	// pairs is the rendered label set without braces, `k1="v1",k2="v2"`,
	// values escaped; empty for a family without labels.
	pairs []byte
	// gen is the family generation that last resolved the series; only
	// the current generation's series render (see vec.Reset).
	gen     uint64
	value   float64
	buckets []uint64
	count   uint64
	sum     float64
}

// family is one metric family: a name, a kind, a label schema, and the
// labeled series seen so far.
type family struct {
	name   string
	kind   familyKind
	labels []string
	bounds []float64 // histogram upper bounds, strictly increasing
	// header is the family's `# HELP` and `# TYPE` lines, help escaped at
	// registration; les are the histogram's rendered `le="…"` pairs, one
	// per bound and the +Inf bucket's last.
	header []byte
	les    []string

	mu     sync.Mutex
	series map[string]*series
	sorted []*series // every series in series, by key
	gen    uint64
	keyBuf []byte // resolve's scratch for the key of a lookup
}

// Registry holds metric families and renders them in the Prometheus
// text format. Construct with NewRegistry; register each family once at
// startup.
type Registry struct {
	mu       sync.Mutex
	families []*family
	names    map[string]bool // reserved sample names, incl. histogram suffixes
	// buf is WriteText's render buffer, kept between calls (nil while a
	// call has it out).
	buf []byte
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

func (r *Registry) register(name, help string, kind familyKind, labels []string, bounds []float64) (*family, error) {
	if !metricNameRE.MatchString(name) {
		return nil, fmt.Errorf("metrics: invalid metric name %q", name)
	}
	if strings.TrimSpace(help) == "" {
		return nil, fmt.Errorf("metrics: metric %q needs non-empty help text", name)
	}
	seen := map[string]bool{}
	for _, l := range labels {
		if !labelNameRE.MatchString(l) || strings.HasPrefix(l, "__") {
			return nil, fmt.Errorf("metrics: invalid label name %q on %q", l, name)
		}
		if l == "le" && kind == histogramKind {
			return nil, fmt.Errorf("metrics: label %q on histogram %q is reserved", l, name)
		}
		if seen[l] {
			return nil, fmt.Errorf("metrics: duplicate label %q on %q", l, name)
		}
		seen[l] = true
	}
	reserved := []string{name}
	if kind == histogramKind {
		if len(bounds) == 0 {
			return nil, fmt.Errorf("metrics: histogram %q needs at least one bucket bound", name)
		}
		for i := 1; i < len(bounds); i++ {
			if !(bounds[i] > bounds[i-1]) {
				return nil, fmt.Errorf("metrics: histogram %q bounds not strictly increasing at %d", name, i)
			}
		}
		if math.IsInf(bounds[len(bounds)-1], 1) {
			return nil, fmt.Errorf("metrics: histogram %q: +Inf bound is implicit, do not list it", name)
		}
		reserved = append(reserved, name+"_bucket", name+"_sum", name+"_count")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, res := range reserved {
		if r.names[res] {
			return nil, fmt.Errorf("metrics: metric name %q already registered", res)
		}
	}
	for _, res := range reserved {
		r.names[res] = true
	}
	f := &family{
		name:   name,
		kind:   kind,
		labels: append([]string(nil), labels...),
		bounds: append([]float64(nil), bounds...),
		series: map[string]*series{},
	}
	f.header = append(f.header, "# HELP "+name+" "...)
	f.header = appendEscaped(f.header, help, false)
	f.header = append(f.header, "\n# TYPE "+name+" "+kind.String()+"\n"...)
	if kind == histogramKind {
		for _, b := range bounds {
			f.les = append(f.les, `le="`+string(appendValue(nil, b))+`"`)
		}
		f.les = append(f.les, `le="+Inf"`)
	}
	r.families = append(r.families, f)
	return f, nil
}

// Counter registers a monotonically increasing family. labels names the
// label schema; a family with no labels has exactly one series.
func (r *Registry) Counter(name, help string, labels ...string) (*CounterVec, error) {
	f, err := r.register(name, help, counterKind, labels, nil)
	if err != nil {
		return nil, err
	}
	return &CounterVec{vec{f}}, nil
}

// Gauge registers a family whose series can go up and down.
func (r *Registry) Gauge(name, help string, labels ...string) (*GaugeVec, error) {
	f, err := r.register(name, help, gaugeKind, labels, nil)
	if err != nil {
		return nil, err
	}
	return &GaugeVec{vec{f}}, nil
}

// Histogram registers a fixed-bucket histogram family with the given
// strictly increasing upper bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) (*HistogramVec, error) {
	f, err := r.register(name, help, histogramKind, labels, bounds)
	if err != nil {
		return nil, err
	}
	return &HistogramVec{vec{f}}, nil
}

// vec is the shared label-resolution core of the typed vectors.
type vec struct{ fam *family }

// resolve returns the series for the given label values, creating it on
// first use; a series hidden by Reset comes back zeroed. Resolving a
// series the family holds allocates nothing. It panics on label-arity
// mismatch — like a wrong printf verb, that is a programming error at an
// instrumentation site, not a runtime condition.
func (v vec) resolve(values []string) *series {
	f := v.fam
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s: got %d label values for %d labels", f.name, len(values), len(f.labels)))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	key := f.keyBuf[:0]
	for i, val := range values {
		if i > 0 {
			key = append(key, 0xff)
		}
		key = append(key, val...)
	}
	f.keyBuf = key
	s := f.series[string(key)]
	switch {
	case s == nil:
		s = f.newSeries(string(key), values)
	case s.gen != f.gen:
		s.value, s.count, s.sum = 0, 0, 0
		clear(s.buckets)
	}
	s.gen = f.gen
	return s
}

// newSeries adds the series of the given label values under key, in key
// order. Called with f.mu held.
func (f *family) newSeries(key string, values []string) *series {
	s := &series{key: key}
	for i, val := range values {
		if i > 0 {
			s.pairs = append(s.pairs, ',')
		}
		s.pairs = append(s.pairs, f.labels[i]+`="`...)
		s.pairs = appendEscaped(s.pairs, val, true)
		s.pairs = append(s.pairs, '"')
	}
	if f.kind == histogramKind {
		s.buckets = make([]uint64, len(f.bounds))
	}
	f.series[key] = s
	at := sort.Search(len(f.sorted), func(i int) bool { return f.sorted[i].key > key })
	f.sorted = slices.Insert(f.sorted, at, s)
	return s
}

// Reset hides every series in the family until it is resolved again,
// which zeroes it. A scrape handler that rebuilds a small ranking family
// (the worst K tenants) each scrape calls this first, so tenants that left
// the ranking don't linger, and those still in it are resolved again
// without allocating. A series not resolved since the previous Reset is
// dropped, so the family holds at most two rankings' worth. A handle
// resolved before Reset must be resolved again before it is used.
func (v vec) Reset() {
	f := v.fam
	f.mu.Lock()
	defer f.mu.Unlock()
	kept := f.sorted[:0]
	for _, s := range f.sorted {
		if s.gen == f.gen {
			kept = append(kept, s)
		} else {
			delete(f.series, s.key)
		}
	}
	clear(f.sorted[len(kept):])
	f.sorted = kept
	f.gen++
}

// CounterVec is a counter family; With resolves one labeled counter.
type CounterVec struct{ vec }

// With returns the counter for the given label values (created at
// first use). Panics if the number of values doesn't match the schema.
func (c *CounterVec) With(values ...string) Counter {
	return Counter{c.fam, c.resolve(values)}
}

// Counter is one monotonically increasing series.
type Counter struct {
	fam *family
	s   *series
}

// Add increases the counter; negative deltas are ignored (counters are
// monotonic by contract).
func (c Counter) Add(delta float64) {
	if delta < 0 {
		return
	}
	c.fam.mu.Lock()
	c.s.value += delta
	c.fam.mu.Unlock()
}

// Inc adds 1.
func (c Counter) Inc() { c.Add(1) }

// SetTotal sets the counter to an externally maintained running total
// (e.g. an atomic counter owned by the fleet). Decreases are ignored,
// preserving monotonicity.
func (c Counter) SetTotal(total float64) {
	c.fam.mu.Lock()
	if total > c.s.value {
		c.s.value = total
	}
	c.fam.mu.Unlock()
}

// GaugeVec is a gauge family; With resolves one labeled gauge.
type GaugeVec struct{ vec }

// With returns the gauge for the given label values (created at first
// use). Panics if the number of values doesn't match the schema.
func (g *GaugeVec) With(values ...string) Gauge {
	return Gauge{g.fam, g.resolve(values)}
}

// Gauge is one series that can move in either direction.
type Gauge struct {
	fam *family
	s   *series
}

// Set stores the value.
func (g Gauge) Set(v float64) {
	g.fam.mu.Lock()
	g.s.value = v
	g.fam.mu.Unlock()
}

// HistogramVec is a fixed-bucket histogram family; With resolves one
// labeled histogram.
type HistogramVec struct{ vec }

// With returns the histogram for the given label values (created at
// first use). Panics if the number of values doesn't match the schema.
func (h *HistogramVec) With(values ...string) FixedHistogram {
	return FixedHistogram{h.fam, h.resolve(values)}
}

// FixedHistogram is one labeled fixed-bucket histogram series.
type FixedHistogram struct {
	fam *family
	s   *series
}

// Observe records x: the first bucket whose upper bound is >= x gains a
// count; values above the last bound land only in the implicit +Inf
// bucket. NaN observations are dropped.
func (h FixedHistogram) Observe(x float64) {
	if math.IsNaN(x) {
		return
	}
	h.fam.mu.Lock()
	for i, b := range h.fam.bounds {
		if x <= b {
			h.s.buckets[i]++
			break
		}
	}
	h.s.count++
	h.s.sum += x
	h.fam.mu.Unlock()
}

// SetBuckets sets the histogram to externally maintained running totals —
// the histogram counterpart of Counter.SetTotal: buckets[i] is the number
// of observations that fell in bucket i (at or under bound i, above bound
// i-1; the same layout Observe fills), count and sum cover every
// observation including those above the last bound. It panics when the
// bucket count is not the family's — a programming error, like a label
// arity mismatch. A count lower than the one held is ignored, preserving
// monotonicity across racing setters.
func (h FixedHistogram) SetBuckets(buckets []uint64, count uint64, sum float64) {
	if len(buckets) != len(h.fam.bounds) {
		panic(fmt.Sprintf("metrics: %s: got %d buckets for %d bounds", h.fam.name, len(buckets), len(h.fam.bounds)))
	}
	h.fam.mu.Lock()
	if count >= h.s.count {
		copy(h.s.buckets, buckets)
		h.s.count, h.s.sum = count, sum
	}
	h.fam.mu.Unlock()
}

// appendEscaped appends s escaped per the text format: backslash and
// newline always (HELP text), the double quote too when quote is set
// (label values).
func appendEscaped(b []byte, s string, quote bool) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\':
			b = append(b, `\\`...)
		case c == '\n':
			b = append(b, `\n`...)
		case c == '"' && quote:
			b = append(b, `\"`...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// appendValue appends a sample value: the shortest decimal that reads
// back as v, ±Inf and NaN as the text format spells them.
//
//hpm:hotpath
func appendValue(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		b = append(b, "+Inf"...)
	case math.IsInf(v, -1):
		b = append(b, "-Inf"...)
	default:
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return b
}

// appendSeriesName appends name and suffix and then the label set in
// braces — the series' pairs and an extra pair (a histogram's le) — or no
// braces when both are empty.
//
//hpm:hotpath
func appendSeriesName(b []byte, name, suffix string, pairs []byte, extra string) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	if len(pairs) == 0 && extra == "" {
		return b
	}
	b = append(b, '{')
	b = append(b, pairs...)
	if extra != "" {
		if len(pairs) > 0 {
			b = append(b, ',')
		}
		b = append(b, extra...)
	}
	b = append(b, '}')
	return b
}

// appendText appends the family: its `# HELP` and `# TYPE` lines, then
// the current generation's series in key order.
//
//hpm:hotpath
func (f *family) appendText(b []byte) []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	b = append(b, f.header...)
	for _, s := range f.sorted {
		if s.gen != f.gen {
			continue
		}
		if f.kind != histogramKind {
			b = appendSeriesName(b, f.name, "", s.pairs, "")
			b = append(b, ' ')
			b = appendValue(b, s.value)
			b = append(b, '\n')
			continue
		}
		cum := uint64(0)
		for i, le := range f.les {
			if i < len(f.bounds) {
				cum += s.buckets[i]
			} else {
				cum = s.count // the +Inf bucket holds every observation
			}
			b = appendSeriesName(b, f.name, "_bucket", s.pairs, le)
			b = append(b, ' ')
			b = strconv.AppendUint(b, cum, 10)
			b = append(b, '\n')
		}
		b = appendSeriesName(b, f.name, "_sum", s.pairs, "")
		b = append(b, ' ')
		b = appendValue(b, s.sum)
		b = append(b, '\n')
		b = appendSeriesName(b, f.name, "_count", s.pairs, "")
		b = append(b, ' ')
		b = strconv.AppendUint(b, s.count, 10)
		b = append(b, '\n')
	}
	return b
}

// AppendText appends what WriteText writes to dst and returns the
// extended slice; a dst with room for the text costs no allocation.
func (r *Registry) AppendText(dst []byte) []byte {
	r.mu.Lock()
	fams := r.families // registration only appends: these entries stay as they are
	r.mu.Unlock()
	for _, f := range fams {
		dst = f.appendText(dst)
	}
	return dst
}

// WriteText renders every family in registration order: `# HELP` and
// `# TYPE` exactly once each, then the family's series sorted by label
// values. Families with no series yet still emit their headers, so a
// scraper sees the full catalog from the first scrape. The text is built
// in a buffer the registry keeps for the next call, so a warm WriteText
// allocates nothing; no lock is held while w is written, and a call
// overlapping another renders into a buffer of its own.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	buf := r.buf
	r.buf = nil
	r.mu.Unlock()
	buf = r.AppendText(buf[:0])
	_, err := w.Write(buf)
	r.mu.Lock()
	r.buf = buf
	r.mu.Unlock()
	return err
}
