package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary hpmperf can reach from
// outside the program. Spans of one round share its id; parent is the
// index of the span that caused this one, -1 for a root.
type span struct {
	name       string
	track      string // timeline the span is drawn on
	start, end time.Duration
	parent     int
	round      int
	// synth marks a span whose duration was measured inside the program
	// (a flight-recorder DecideNs) but whose position was not: it is laid
	// out back to back inside its parent.
	synth bool
}

// tracer keeps spans in memory until the benchmark ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// scope prefixes track names: the workload whose spans are being
	// recorded (set between workloads, never while spans are open).
	scope string
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span now and returns its index for end and for children.
func (t *tracer) begin(name, track string, parent, round int) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, track: t.scope + " " + track, start: now, end: now, parent: parent, round: round})
	return len(t.spans) - 1
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	return now - t.spans[id].start
}

// place records a synthesised span of the given duration starting at
// start (relative to the epoch) and returns its index.
func (t *tracer) place(name, track string, parent, round int, start, dur time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, track: t.scope + " " + track, start: start, end: start + dur, parent: parent, round: round, synth: true})
	return len(t.spans) - 1
}

// startOf returns a span's start, for laying synthesised children out.
func (t *tracer) startOf(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].start
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover: overlapping children count
// once, and a child's overhang beyond its parent counts not at all.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	children := make([][]iv, len(spans))
	for _, s := range spans {
		if s.parent < 0 {
			continue
		}
		p := spans[s.parent]
		lo, hi := max(s.start, p.start), min(s.end, p.end)
		if hi > lo {
			children[s.parent] = append(children[s.parent], iv{lo, hi})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := children[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, edge := time.Duration(0), s.start
		for _, v := range ivs {
			if v.hi <= edge {
				continue
			}
			covered += v.hi - max(v.lo, edge)
			edge = v.hi
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// writeChromeTrace writes spans as Chrome trace_event JSON ("X" complete
// events, microsecond timestamps), one thread per track, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
func writeChromeTrace(w io.Writer, process string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	tids := map[string]int{}
	events := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": process}}}
	self := selfTimes(spans)
	for i, s := range spans {
		tid, ok := tids[s.track]
		if !ok {
			tid = len(tids) + 1
			tids[s.track] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": s.track}})
		}
		args := map[string]any{"round": s.round, "self_us": float64(self[i].Nanoseconds()) / 1e3}
		if s.parent >= 0 {
			args["parent"] = spans[s.parent].name
		}
		if s.synth {
			args["synthesised"] = true
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
