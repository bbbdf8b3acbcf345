package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestNewRecorderValidation(t *testing.T) {
	if _, err := NewRecorder(0); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	if _, err := NewRecorder(-5); err == nil {
		t.Fatal("negative capacity accepted")
	}
	r, err := NewRecorder(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Capacity() != 1 {
		t.Fatalf("capacity = %d, want 1", r.Capacity())
	}
}

// A nil *Recorder is the disabled recorder: every method must be safe
// and report emptiness.
func TestNilRecorderIsDisabled(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder claims enabled")
	}
	r.SetTick(7)
	r.Record(Record{Level: LevelL0})
	if r.Tick() != 0 || r.Total() != 0 || r.Len() != 0 || r.Capacity() != 0 {
		t.Fatal("nil recorder not empty")
	}
	if got := r.Window(nil, 10); len(got) != 0 {
		t.Fatalf("nil window returned %d records", len(got))
	}
	if got, next := r.Since(nil, 0); len(got) != 0 || next != 0 {
		t.Fatalf("nil Since returned %d records, cursor %d", len(got), next)
	}
}

func TestRecorderTickStampAndWraparound(t *testing.T) {
	r, err := NewRecorder(4)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 6; k++ {
		r.SetTick(k)
		r.Record(Record{Level: LevelL0, Module: 0, Comp: int16(k)})
	}
	if r.Total() != 6 {
		t.Fatalf("total = %d, want 6", r.Total())
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4 (ring capacity)", r.Len())
	}
	win := r.Window(nil, 0)
	if len(win) != 4 {
		t.Fatalf("window = %d records, want 4", len(win))
	}
	// Oldest first, and the stamped tick overrides whatever the caller set.
	for i, rec := range win {
		want := int64(i + 2) // records 0 and 1 were overwritten
		if rec.Tick != want || rec.Comp != int16(want) {
			t.Fatalf("window[%d] = tick %d comp %d, want %d", i, rec.Tick, rec.Comp, want)
		}
	}
	if got := r.Window(nil, 2); len(got) != 2 || got[0].Tick != 4 {
		t.Fatalf("window(max=2) = %+v, want ticks 4,5", got)
	}
}

func TestRecorderSinceCursor(t *testing.T) {
	r, err := NewRecorder(8)
	if err != nil {
		t.Fatal(err)
	}
	write := func(n int) {
		for i := 0; i < n; i++ {
			r.Record(Record{Level: LevelL1})
		}
	}
	write(3)
	got, cur := r.Since(nil, 0)
	if len(got) != 3 || cur != 3 {
		t.Fatalf("first read: %d records, cursor %d", len(got), cur)
	}
	got, cur = r.Since(got[:0], cur)
	if len(got) != 0 || cur != 3 {
		t.Fatalf("idle read: %d records, cursor %d", len(got), cur)
	}
	// Overflow the ring between reads: the overwritten records are gone,
	// the survivors arrive exactly once.
	write(12)
	got, cur = r.Since(got[:0], cur)
	if len(got) != 8 || cur != 15 {
		t.Fatalf("overflow read: %d records, cursor %d; want 8, 15", len(got), cur)
	}
}

// TestRecorderSinceEveryWindow checks the read against the definition —
// the ring retains the newest capacity records — for every cursor at every
// fill level of rings either side of the anchor stride: straight windows,
// windows that wrap the pages' end, the full ring, and stale or future
// cursors. Records written in the third lap carry two floats more, so the
// ring adds pages under the reads. Oldest reports how many records a stale
// cursor lost, and a read into a buffer that is large enough does not
// allocate. The 4095-record ring is read at its fill levels around the
// first wrap, mid-growth and at the end, whole from the cursors within two
// anchors of either end.
//
//hpm:pin mechanics
func TestRecorderSinceEveryWindow(t *testing.T) {
	for _, capacity := range []int{1, 7, 15, anchorStride, 17, 4095} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) { sinceEveryWindow(t, capacity) })
	}
	var off *Recorder
	if off.Oldest() != 0 {
		t.Fatal("nil recorder: Oldest() != 0")
	}
}

func sinceEveryWindow(t *testing.T, capacity int) {
	r, err := NewRecorder(capacity)
	if err != nil {
		t.Fatal(err)
	}
	read := func(total uint64) bool {
		if capacity < 64 {
			return true
		}
		c := uint64(capacity)
		return total == c || total == c+1 || total == 2*c+anchorStride+1 || total == 3*c
	}
	buf := make([]Record, 0, capacity)
	for total := uint64(0); total <= 3*uint64(capacity); total++ {
		oldest := uint64(0)
		if total > uint64(capacity) {
			oldest = total - uint64(capacity)
		}
		if got := r.Oldest(); got != oldest {
			t.Fatalf("total %d: Oldest() = %d, want %d", total, got, oldest)
		}
		for cursor := uint64(0); read(total) && cursor <= total+2; cursor++ {
			if capacity >= 64 && cursor > 0 && cursor+1 < oldest {
				continue // a stale cursor reads what oldest-1 does
			}
			if capacity >= 64 && cursor > oldest+2*anchorStride && cursor+2*anchorStride < total {
				// A large ring's middle cursors: Since decodes on from
				// where seek lands, so the record there must be the
				// cursor's. Reading each whole would cost cap² decodes.
				m := r.seek(cursor)
				var scratch [maxRecordSize]byte
				var rec Record
				decode(r.view(m.pos, &scratch), &rec, &m.p)
				if rec.Explored != int32(cursor) || rec.Tick != int64(cursor/3) {
					t.Fatalf("total %d: seek(%d) lands on seq %d at tick %d", total, cursor, rec.Explored, rec.Tick)
				}
				continue
			}
			got, next := r.Since(buf[:0], cursor)
			if next != total {
				t.Fatalf("total %d cursor %d: next cursor %d", total, cursor, next)
			}
			start := max(cursor, oldest)
			want := 0
			if start < total {
				want = int(total - start)
			}
			if len(got) != want {
				t.Fatalf("total %d cursor %d: %d records, want %d", total, cursor, len(got), want)
			}
			for i, rec := range got {
				if seq := start + uint64(i); rec.Explored != int32(seq) || rec.Tick != int64(seq/3) {
					t.Fatalf("total %d cursor %d: record %d is seq %d at tick %d, want %d at %d", total, cursor, i, rec.Explored, rec.Tick, seq, seq/3)
				}
			}
		}
		rec := Record{Level: LevelL0, Explored: int32(total)}
		if total >= 2*uint64(capacity) {
			rec.Cost, rec.Resp = 1.5, 2.5
		}
		r.SetTick(int64(total / 3))
		r.Record(rec)
	}
	if addedPages(r) == 0 {
		t.Fatalf("the ring never added a page")
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Since(buf[:0], 0) }); allocs != 0 {
		t.Fatalf("Since into a large-enough buffer allocated %v/op, want 0", allocs)
	}
}

// The recorder hot path must not allocate: the whole point of the ring
// is that enabling telemetry keeps the engine's 0-alloc decision tick. The
// writes below wrap a small ring many times over records of every writer
// shape, so the pages' wrap, the eviction and the straddling copies all
// run.
//
//hpm:pin mechanics
func TestRecorderRecordZeroAlloc(t *testing.T) {
	r, err := NewRecorder(64)
	if err != nil {
		t.Fatal(err)
	}
	// A ring of writer shapes at their extremes averages over the 8 B a
	// record NewRecorder sets aside, so the ring adds pages while it first
	// fills, before the count.
	i := 0
	for ; i < 2*r.Capacity(); i++ {
		r.SetTick(int64(i / 5))
		r.Record(writerShapes[i%len(writerShapes)].rec)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for k := 0; k < 16; k++ {
			r.SetTick(int64(i / 5))
			r.Record(writerShapes[i%len(writerShapes)].rec)
			i++
		}
	})
	if allocs != 0 {
		t.Fatalf("16 Record calls allocate %v, want 0", allocs)
	}
	if r.Total() < 100*uint64(r.Capacity()) {
		t.Fatalf("%d records through a ring of %d: not wrapped enough", r.Total(), r.Capacity())
	}
	var nilRec *Recorder
	rec := writerShapes[0].rec
	allocs = testing.AllocsPerRun(1000, func() {
		if nilRec.Enabled() {
			t.Fatal("nil enabled")
		}
		nilRec.Record(rec)
	})
	if allocs != 0 {
		t.Fatalf("disabled Record allocates %v per call, want 0", allocs)
	}
}

func TestLevelTextRoundTrip(t *testing.T) {
	for _, l := range []Level{LevelTick, LevelL0, LevelL1, LevelL2} {
		b, err := l.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Level
		if err := back.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if back != l {
			t.Fatalf("round trip %v -> %s -> %v", l, b, back)
		}
	}
	var l Level
	if err := l.UnmarshalText([]byte("bogus")); err == nil {
		t.Fatal("bogus level parsed")
	}
}

func TestWriteJSONL(t *testing.T) {
	recs := []Record{
		{Tick: 0, Level: LevelTick, Module: -1, Comp: -1, FreqIdx: -1, Resp: 2.5, QoS: true, DecideNs: 1200},
		{Tick: 1, Level: LevelL0, Module: 0, Comp: 2, FreqIdx: 3, Explored: 42, Cost: 0.75},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line not JSON: %v", err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	if lines[0]["level"] != "tick" || lines[0]["qosViolation"] != true {
		t.Fatalf("tick line = %v", lines[0])
	}
	if lines[1]["level"] != "l0" || lines[1]["freqIdx"] != float64(3) {
		t.Fatalf("l0 line = %v", lines[1])
	}
}

func TestWriteTrace(t *testing.T) {
	if err := WriteTrace(&bytes.Buffer{}, nil, 0); err == nil {
		t.Fatal("period 0 accepted")
	}
	recs := []Record{
		{Tick: 0, Level: LevelTick, Module: -1, Comp: -1, DecideNs: 5000, Resp: 1.2},
		{Tick: 0, Level: LevelL2, Module: -1, Comp: -1, DecideNs: 900, Explored: 12, Cost: 3},
		{Tick: 0, Level: LevelL2, Module: 1, Gamma: 0.4},
		{Tick: 0, Level: LevelL1, Module: 1, Comp: -1, DecideNs: 800, Explored: 31, Alpha: 0b1011, Cost: 2},
		{Tick: 0, Level: LevelL1, Module: 1, Comp: 0, On: true, Gamma: 0.5},
		{Tick: 1, Level: LevelL0, Module: 1, Comp: 0, FreqIdx: 2, DecideNs: 300, Explored: 9},
		{Tick: 1, Level: LevelTick, Module: -1, Comp: -1, QoS: true, Resp: 9.9},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, recs, 30); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	if tf.Unit != "ms" {
		t.Fatalf("displayTimeUnit = %q", tf.Unit)
	}
	byPhase := map[string]int{}
	sawQoS, sawL0Ts := false, math.NaN()
	for _, ev := range tf.TraceEvents {
		ph, _ := ev["ph"].(string)
		byPhase[ph]++
		name, _ := ev["name"].(string)
		if name == "tick (QoS violation)" {
			sawQoS = true
		}
		if name == "L0 decide" {
			sawL0Ts = ev["ts"].(float64)
		}
	}
	if byPhase["M"] == 0 || byPhase["X"] == 0 || byPhase["C"] == 0 {
		t.Fatalf("phase counts %v: want metadata, slices and counters", byPhase)
	}
	// Tick 1 lands one period (30 s = 3e7 µs) into the trace.
	if sawL0Ts != 3e7 {
		t.Fatalf("L0 slice ts = %v, want 3e7 µs", sawL0Ts)
	}
	if !sawQoS {
		t.Fatal("QoS-violating tick not flagged in trace")
	}
}

// TestProfileHelpers drives the profiling flags the way a CLI does:
// register on a FlagSet, parse, start, stop into the run's error.
func TestProfileHelpers(t *testing.T) {
	profiles := func(args ...string) (stop func() error, err error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		start := ProfileFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		stopInto, err := start()
		if err != nil {
			return nil, err
		}
		return func() (runErr error) {
			stopInto(&runErr)
			return runErr
		}, nil
	}
	stop, err := profiles()
	if err != nil || stop() != nil {
		t.Fatalf("no profile flags: %v", err)
	}
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "heap.out")
	stop, err = profiles("-cpuprofile", cpu, "-memprofile", heap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		_ = math.Sqrt(float64(i))
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, heap} {
		fi, err := os.Stat(p)
		if err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s empty or missing (err %v)", p, err)
		}
	}
	if _, err := profiles("-cpuprofile", filepath.Join(dir, "no/such/dir/x")); err == nil {
		t.Fatal("unwritable cpu path accepted")
	}
	stop, err = profiles("-memprofile", filepath.Join(dir, "no/such/dir/x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Fatal("unwritable heap path accepted")
	}
}
