package metrics

import (
	"fmt"
	"io"
	"math"
	"regexp"
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
// a single WriteText renderer that emits `# HELP` and `# TYPE` exactly
// once per family with escaped help text and label values.
//
// Concurrency: a Registry and its instruments are safe for concurrent
// use. WriteText takes the same locks, so a scrape sees a consistent
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
	labelValues []string
	value       float64
	buckets     []uint64
	count       uint64
	sum         float64
}

// family is one metric family: a name, a kind, a label schema, and the
// labeled series seen so far.
type family struct {
	name   string
	help   string
	kind   familyKind
	labels []string
	bounds []float64 // histogram upper bounds, strictly increasing

	mu     sync.Mutex
	series map[string]*series
}

// Registry holds metric families and renders them in the Prometheus
// text format. Construct with NewRegistry; register each family once at
// startup.
type Registry struct {
	mu       sync.Mutex
	families []*family
	names    map[string]bool // reserved sample names, incl. histogram suffixes
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
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		bounds: append([]float64(nil), bounds...),
		series: map[string]*series{},
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
// first use. It panics on label-arity mismatch — like a wrong printf
// verb, that is a programming error at an instrumentation site, not a
// runtime condition.
func (v vec) resolve(values []string) *series {
	f := v.fam
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s: got %d label values for %d labels", f.name, len(values), len(f.labels)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = &series{labelValues: append([]string(nil), values...)}
		if f.kind == histogramKind {
			s.buckets = make([]uint64, len(f.bounds))
		}
		f.series[key] = s
	}
	return s
}

// Reset drops every series in the family. A scrape handler that rebuilds
// a small ranking family (the worst K tenants) each scrape calls this
// first, so tenants that left the ranking don't linger.
func (v vec) Reset() {
	v.fam.mu.Lock()
	defer v.fam.mu.Unlock()
	v.fam.series = map[string]*series{}
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

// escapeHelp escapes a HELP string per the text format: backslash and
// newline only.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes a label value per the text format:
// backslash, double quote and newline.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelPairs renders {k1="v1",k2="v2"} for the series, with an optional
// extra pair appended (used for histogram le=). Empty schema and no
// extra renders "".
func labelPairs(names []string, s *series, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabelValue(s.labelValues[i]))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraName, extraValue)
	}
	b.WriteByte('}')
	return b.String()
}

// WriteText renders every family in registration order: `# HELP` and
// `# TYPE` exactly once each, then the family's series sorted by label
// values. Families with no series yet still emit their headers, so a
// scraper sees the full catalog from the first scrape.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			switch f.kind {
			case counterKind, gaugeKind:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelPairs(f.labels, s, "", ""), formatValue(s.value))
			case histogramKind:
				cum := uint64(0)
				for i, bound := range f.bounds {
					cum += s.buckets[i]
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelPairs(f.labels, s, "le", formatValue(bound)), cum)
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelPairs(f.labels, s, "le", "+Inf"), s.count)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labelPairs(f.labels, s, "", ""), formatValue(s.sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labelPairs(f.labels, s, "", ""), s.count)
			}
		}
		f.mu.Unlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}
