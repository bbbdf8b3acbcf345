package obs

import (
	"math"
	"math/rand/v2"
	"testing"
)

// sameBits compares two records field for field with the floats compared
// as bit patterns, so NaN payloads and signed zeros count.
func sameBits(a, b Record) bool {
	fa := [3]uint64{math.Float64bits(a.Gamma), math.Float64bits(a.Cost), math.Float64bits(a.Resp)}
	fb := [3]uint64{math.Float64bits(b.Gamma), math.Float64bits(b.Cost), math.Float64bits(b.Resp)}
	a.Gamma, a.Cost, a.Resp = 0, 0, 0
	b.Gamma, b.Cost, b.Resp = 0, 0, 0
	return a == b && fa == fb
}

// roundTrip writes rec at tick, after records at prev, into a ring it has
// to wrap, and returns what Since reads back.
func roundTrip(t *testing.T, prev, tick int64, rec Record) Record {
	t.Helper()
	r, err := NewRecorder(3)
	if err != nil {
		t.Fatal(err)
	}
	r.SetTick(prev)
	for i := 0; i < 4; i++ {
		r.Record(Record{Level: LevelL2, Gamma: 0.25})
	}
	r.SetTick(tick)
	r.Record(rec)
	got, next := r.Since(nil, r.Total()-1)
	if len(got) != 1 || next != r.Total() {
		t.Fatalf("Since returned %d records, cursor %d", len(got), next)
	}
	return got[0]
}

// The extremes of what the committed writers put in a record. The engine
// writes a tick record every tick, so consecutive records are at most one
// tick apart; hpmserve admits 64 modules of at most 21 computers, and an
// L1 decision probes at most 21·21 map cells per computer; a decision that
// takes a minute would be a stall, not a decision.
const (
	extremeModule   = 63
	extremeComp     = 20
	extremeAlpha    = 1<<21 - 1
	extremeL1States = 21 * 21 * 21
	extremeStates   = 1<<20 - 1
	extremeDecideNs = 60e9
)

// writerShapes are the records each writer emits — the engine's tick
// record, the L0 decision, the L1 and L2 summary and detail records,
// hpmperf's obs.record_ns probe — at ordinary values and at the extremes
// above, with the tick each is stamped with.
var writerShapes = []struct {
	name string
	tick int64
	rec  Record
}{
	{"engine tick", 41, Record{Level: LevelTick, Module: -1, Comp: -1, FreqIdx: -1, DecideNs: 18_250, Resp: 1.75, QoS: true, Degraded: true, Stale: 3}},
	{"engine tick idle", 0, Record{Level: LevelTick, Module: -1, Comp: -1, FreqIdx: -1}},
	{"L0", 7, Record{Level: LevelL0, Module: 2, Comp: 3, FreqIdx: 5, Explored: 341, DecideNs: 2_900, Cost: 12.5}},
	{"L1 summary", 8, Record{Level: LevelL1, Module: 1, Comp: -1, FreqIdx: -1, Explored: 178_609, DecideNs: 400_000_000, Alpha: 0b1011, Cost: 3.25}},
	{"L1 detail", 8, Record{Level: LevelL1, Module: 1, Comp: 2, FreqIdx: -1, On: true, Gamma: 0.375}},
	{"L1 detail off", 8, Record{Level: LevelL1, Module: 1, Comp: 0, FreqIdx: -1}},
	{"L2 summary", 16, Record{Level: LevelL2, Module: -1, Comp: -1, FreqIdx: -1, Explored: 35, DecideNs: 9_000, Cost: 0.5}},
	{"L2 detail", 16, Record{Level: LevelL2, Module: 3, Comp: -1, FreqIdx: -1, Gamma: 0.25}},
	{"hpmperf obs.record_ns", 1, Record{Level: LevelL0, Module: 0, Comp: 3, FreqIdx: 2, Explored: 9, DecideNs: 1500}},

	{"tick at extremes", 1, Record{Level: LevelTick, Module: -1, Comp: -1, FreqIdx: -1, DecideNs: extremeDecideNs, Resp: math.Inf(1), QoS: true, Degraded: true, Stale: extremeModule + 1}},
	{"L0 at extremes", 1, Record{Level: LevelL0, Module: extremeModule, Comp: extremeComp, FreqIdx: 63, Explored: extremeStates, DecideNs: extremeDecideNs, Cost: math.Inf(-1)}},
	{"L1 summary at extremes", 1, Record{Level: LevelL1, Module: extremeModule, Comp: -1, FreqIdx: -1, Explored: extremeL1States, DecideNs: extremeDecideNs, Alpha: extremeAlpha, Cost: math.Inf(1)}},
	{"L1 detail at extremes", 1, Record{Level: LevelL1, Module: extremeModule, Comp: extremeComp, FreqIdx: -1, On: true, Gamma: math.SmallestNonzeroFloat64}},
	{"L2 summary at extremes", 1, Record{Level: LevelL2, Module: -1, Comp: -1, FreqIdx: -1, Explored: extremeStates, DecideNs: extremeDecideNs, Cost: math.MaxFloat64}},
	{"L2 detail at extremes", 1, Record{Level: LevelL2, Module: extremeModule, Comp: -1, FreqIdx: -1, Gamma: math.Copysign(0, -1)}},
}

// TestRecordRoundTripWriterShapes pins write → Since as the identity on
// every record shape a writer emits, and on each field's extremes.
func TestRecordRoundTripWriterShapes(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_dead_beef_0001)
	cases := append(writerShapes[:len(writerShapes):len(writerShapes)], []struct {
		name string
		tick int64
		rec  Record
	}{
		{"tick extremes", math.MaxInt64, Record{Level: LevelTick, Module: -1, Comp: -1, FreqIdx: -1, DecideNs: math.MaxInt64, Resp: math.Inf(1), QoS: true, Stale: math.MaxInt16}},
		{"tick NaN resp", math.MinInt64, Record{Level: LevelTick, Module: -1, Comp: -1, FreqIdx: -1, DecideNs: math.MinInt64, Resp: nan, Degraded: true}},
		{"L0 extremes", math.MaxInt64, Record{Level: LevelL0, Module: math.MaxInt16, Comp: math.MaxInt16, FreqIdx: math.MaxInt16, Explored: math.MaxInt32, DecideNs: math.MaxInt64, Cost: math.Inf(-1)}},
		{"L0 NaN cost", 2, Record{Level: LevelL0, Module: 0, Comp: 0, FreqIdx: 0, Explored: 1, Cost: nan}},
		{"L1 summary all ones", 3, Record{Level: LevelL1, Module: -1, Comp: -1, FreqIdx: -1, Explored: math.MaxInt32, DecideNs: math.MaxInt64, Alpha: math.MaxUint64, Cost: math.Inf(1)}},
		{"L1 detail NaN gamma", 3, Record{Level: LevelL1, Module: 0, Comp: 63, FreqIdx: -1, On: true, Gamma: nan}},
		{"L2 summary -Inf cost", 4, Record{Level: LevelL2, Module: -1, Comp: -1, FreqIdx: -1, Explored: math.MaxInt32, Cost: math.Inf(-1)}},
		{"L2 detail -0 gamma", 4, Record{Level: LevelL2, Module: 0, Comp: -1, FreqIdx: -1, Gamma: math.Copysign(0, -1)}},
		{"every field at its longest", math.MinInt64, longestRecord()},
	}...)
	for _, tc := range cases {
		want := tc.rec
		want.Tick = tc.tick // Record stamps the recorder's tick over rec.Tick
		for _, prev := range []int64{0, tc.tick - 1, math.MaxInt64} {
			if got := roundTrip(t, prev, tc.tick, tc.rec); !sameBits(got, want) {
				t.Errorf("%s after tick %d: wrote %+v, read %+v", tc.name, prev, want, got)
			}
		}
	}
}

// longestRecord has every field present at its longest encoding: written
// at a tick math.MinInt64 from the previous record's, it takes
// maxRecordSize bytes.
func longestRecord() Record {
	nan := math.Float64frombits(0xfff8_0000_0000_0001)
	return Record{
		Level: math.MaxUint8, Module: math.MinInt16, Comp: math.MinInt16, FreqIdx: math.MinInt16,
		On: true, QoS: true, Degraded: true, Explored: math.MinInt32, DecideNs: math.MinInt64,
		Alpha: math.MaxUint64, Gamma: nan, Cost: nan, Resp: nan, Stale: math.MinInt16,
	}
}

// writerMax is the longest record a writer emits, at the extremes of what
// it carries. What NewRecorder sets aside per record is an average well
// below it (TestRecorderArenaFlat).
const writerMax = 24

// TestRecordEncodedSize pins what a record costs the ring: every shape a
// writer emits, at the extremes of what it writes, fits writerMax, and the
// longest encoding of any record is maxRecordSize. A new field costs
// nothing while it is zero; once a writer sets it, its bytes show here.
//
//hpm:pin mechanics
func TestRecordEncodedSize(t *testing.T) {
	var buf [maxRecordSize]byte
	widest := 0
	for _, tc := range writerShapes {
		p, q := resetPred, resetPred
		n := encode(&buf, &tc.rec, &p)
		if n > writerMax {
			t.Errorf("%s encodes to %d bytes, over the %d-byte writer maximum", tc.name, n, writerMax)
		}
		if got := span(buf[:], &q); got != n {
			t.Errorf("%s encodes to %d bytes, but its header and varints span %d", tc.name, n, got)
		}
		widest = max(widest, n)
	}
	rec, p := longestRecord(), resetPred
	rec.Tick = math.MinInt64
	if n := encode(&buf, &rec, &p); n != maxRecordSize {
		t.Errorf("the longest record encodes to %d bytes, want maxRecordSize = %d", n, maxRecordSize)
	}
	t.Logf("writer shapes encode to at most %d bytes (NewRecorder sets aside %d a record)", widest, initialRecordBytes)
}

// TestRecorderGrowthCeiling pins what a ring of the longest records comes
// to hold. A page is added only while a window of them, the record being
// written and the unused start of the tail's page do not fit the pages, so
// a ring holds at most ⌈capacity × maxRecordSize / page⌉ + 1 of them — or
// what NewRecorder allocated, if that is more — and maxCapacity records at
// that cost keep every position difference a uint32.
func TestRecorderGrowthCeiling(t *testing.T) {
	if ring := uint64(maxCapacity)*maxRecordSize + 2<<maxPageShift; ring > math.MaxUint32 {
		t.Fatalf("%d records × %d B and two pages = %d B: a position difference would overflow a uint32", maxCapacity, maxRecordSize, ring)
	}
	for _, capacity := range []int{1, 17, 300, 4096} {
		r, err := NewRecorder(capacity)
		if err != nil {
			t.Fatal(err)
		}
		initial := len(r.pages)
		for i := 0; i < 3*r.Capacity(); i++ {
			r.SetTick(int64(i%2) * math.MinInt64)
			r.Record(longestRecord())
		}
		page := 1 << r.shift
		ceiling := max(initial, (capacity*maxRecordSize+page-1)/page+1)
		if got := len(r.pages); got <= initial || got > ceiling {
			t.Fatalf("a %d-record ring of the longest records holds %d pages of %d B, want (%d, %d]", capacity, got, page, initial, ceiling)
		}
	}
}

// FuzzRecorderRoundTrip drives the encoding with arbitrary records: every
// field, the level and the three flags take any value, and the tick any
// distance from the previous record's. Since reads back bit for bit.
//
//hpm:pin fuzz
func FuzzRecorderRoundTrip(f *testing.F) {
	for i, tc := range writerShapes[:6] {
		r := tc.rec
		var flags uint8
		for bit, set := range []bool{r.On, r.QoS, r.Degraded} {
			if set {
				flags |= 1 << bit
			}
		}
		f.Add(int64(i), tc.tick, uint8(r.Level), r.Module, r.Comp, r.FreqIdx, r.Stale, r.Explored, r.DecideNs, r.Alpha,
			math.Float64bits(r.Gamma), math.Float64bits(r.Cost), math.Float64bits(r.Resp), flags)
	}
	f.Fuzz(func(t *testing.T, prev, tick int64, level uint8, module, comp, freqIdx, stale int16, explored int32, decideNs int64, alpha, gamma, cost, resp uint64, flags uint8) {
		want := Record{
			Level: Level(level), Module: module, Comp: comp, FreqIdx: freqIdx, Stale: stale,
			Explored: explored, DecideNs: decideNs, Alpha: alpha,
			Gamma: math.Float64frombits(gamma), Cost: math.Float64frombits(cost), Resp: math.Float64frombits(resp),
			On: flags&1 != 0, QoS: flags&2 != 0, Degraded: flags&4 != 0,
		}
		got := roundTrip(t, prev, tick, want)
		want.Tick = tick
		if !sameBits(got, want) {
			t.Fatalf("wrote %+v, read %+v", want, got)
		}
	})
}

// randomRecord draws a record whose fields are each absent about half the
// time and otherwise anything, extremes, NaN payloads and −0 included.
func randomRecord(rng *rand.Rand) Record {
	pick := func() bool { return rng.IntN(2) == 0 }
	i16 := func(absent int16) int16 {
		switch {
		case pick():
			return absent
		case pick():
			return int16(rng.IntN(64))
		}
		return int16(rng.Uint32())
	}
	u64 := func() uint64 {
		switch rng.IntN(6) {
		case 0, 1, 2:
			return 0
		case 3:
			return rng.Uint64N(1 << 20)
		case 4:
			return []uint64{math.MaxUint64, 1 << 63, math.Float64bits(math.NaN()), 0x7ff0_0000_0000_0001}[rng.IntN(4)]
		}
		return rng.Uint64()
	}
	level := Level(rng.IntN(4))
	if rng.IntN(8) == 0 {
		level = Level(rng.Uint32())
	}
	return Record{
		Tick: rng.Int64(), Level: level,
		Module: i16(-1), Comp: i16(-1), FreqIdx: i16(-1), Stale: i16(0),
		On: pick(), QoS: rng.IntN(4) == 0, Degraded: rng.IntN(8) == 0,
		Explored: int32(u64()), DecideNs: int64(u64()), Alpha: u64(),
		Gamma: math.Float64frombits(u64()), Cost: math.Float64frombits(u64()), Resp: math.Float64frombits(u64()),
	}
}

// TestRecorderMatchesSliceOracle checks the recorder against its
// definition — a []Record of everything written, of which it retains the
// newest Capacity() — over capacities either side of the anchor stride and
// random ones, and random record mixes that include runs of the longest
// records, through many wraps and added pages: Oldest, Len and
// Total, Since from every cursor and Window for every max. The 4095-record
// ring reads back at four points (wrapped, mid-growth, grown and at the
// end), whole reads from the cursors within two anchors of either end.
func TestRecorderMatchesSliceOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 1))
	var buf []Record
	capacities := []int{1, 15, anchorStride, 17, 4095}
	for trial := 0; trial < 8; trial++ {
		capacities = append(capacities, 1+rng.IntN(64))
	}
	for _, capacity := range capacities {
		r, err := NewRecorder(capacity)
		if err != nil {
			t.Fatal(err)
		}
		var oracle []Record
		tick := int64(0)
		// check compares the counters after every write and, every fourth
		// write, the reads too.
		check := func(w int) {
			t.Helper()
			total := uint64(len(oracle))
			oldest := uint64(max(0, len(oracle)-capacity))
			if r.Total() != total || r.Oldest() != oldest || r.Len() != int(total-oldest) {
				t.Fatalf("cap %d: Total %d Oldest %d Len %d, want %d %d %d", capacity, r.Total(), r.Oldest(), r.Len(), total, oldest, total-oldest)
			}
			if capacity <= 64 && w%4 != 3 || capacity > 64 && (w+1)%(2*capacity) != 0 {
				return
			}
			same := func(what string, got, want []Record) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("cap %d total %d %s: %d records, want %d", capacity, total, what, len(got), len(want))
				}
				for i := range got {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("cap %d total %d %s: record %d is %+v, want %+v", capacity, total, what, i, got[i], want[i])
					}
				}
			}
			for cursor := max(oldest, 1) - 1; cursor <= total+1; cursor++ {
				if capacity > 64 && cursor > oldest+2*anchorStride && cursor+2*anchorStride < total {
					// A large ring's middle cursors: Since decodes on from
					// where seek lands, so the record there must be the
					// cursor's. Reading each whole would cost cap² decodes.
					m := r.seek(cursor)
					var scratch [maxRecordSize]byte
					buf = append(buf[:0], Record{})
					decode(r.view(m.pos, &scratch), &buf[0], &m.p)
					same("seek", buf, oracle[cursor:cursor+1])
					continue
				}
				var next uint64
				buf, next = r.Since(buf[:0], cursor)
				if next != total {
					t.Fatalf("cap %d total %d: Since(%d) cursor %d", capacity, total, cursor, next)
				}
				same("Since", buf, oracle[min(max(cursor, oldest), total):])
			}
			for m := 0; m <= r.Len()+1; m++ {
				if capacity > 64 && m > 33 && m < r.Len()-1 {
					continue // Window(m) is Since(Total()-m), read above
				}
				want := oracle[oldest:]
				if m > 0 && m < len(want) {
					want = want[len(want)-m:]
				}
				buf = r.Window(buf[:0], m)
				same("Window", buf, want)
			}
		}
		for w := 0; w < 8*capacity; w++ {
			rec := randomRecord(rng)
			switch {
			case w >= 3*capacity && w < 5*capacity: // a ring of the longest records: the ring must add pages
				rec = longestRecord()
				tick += math.MinInt64
			case rng.IntN(16) == 0:
				tick = rng.Int64()
			case rng.IntN(4) == 0:
				tick++
			}
			r.SetTick(tick)
			r.Record(rec)
			rec.Tick = tick
			oracle = append(oracle, rec)
			check(w)
		}
		if addedPages(r) == 0 {
			t.Fatalf("cap %d: the ring never added a page", capacity)
		}
	}
}

// FuzzRecorderOps drives a recorder of any capacity up to 200 with an
// arbitrary sequence of SetTick, Record, Since, Window and Resume, two
// bytes an operation, against a []Record oracle: every read returns
// exactly the newest Capacity() records written since the last Resume from
// its cursor, bit for bit, however the writes wrapped the pages, added some,
// and moved the anchors and the hint the last read left.
//
//hpm:pin fuzz
func FuzzRecorderOps(f *testing.F) {
	f.Add(uint16(1), []byte{1, 0, 1, 2, 2, 0, 1, 15, 2, 0x80, 3, 0})
	f.Add(uint16(15), []byte{1, 1, 0, 3, 1, 2, 1, 3, 1, 4, 2, 0x81, 1, 15, 1, 15, 2, 0x83, 3, 5})
	f.Add(uint16(16), []byte{0, 0x90, 1, 0, 1, 15, 2, 0x80, 1, 15, 1, 2, 2, 0x82, 0, 1, 1, 6, 2, 4})
	f.Add(uint16(17), []byte{1, 9, 1, 9, 1, 9, 2, 0x80, 0, 0xff, 1, 15, 1, 15, 2, 0x80, 3, 0})
	// A read leaves its hint past a wrapped record, then a write adds a
	// page under the hint.
	f.Add(uint16(1), []byte("10102\x81192\x01"))
	// A restart numbers the next record 12, mid-block: the records up to
	// 16 are coded from the restart, the block from 16 afresh.
	f.Add(uint16(19), ops(
		"1\x02", "0\x41", "1\x00", "1\x08", "0\x41", "1\x03", "1\x04", "1\x05", "2\x81", "\x80\x06",
		"0\x41", "1\x06", "1\x00", "2\x81", "1\x02", "0\x41", "1\x03", "1\x04", "1\x05", "0\x41",
		"1\x00", "1\x08", "0\x41", "1\x06", "1\x07", "1\x00", "0\x41", "1\x02", "1\x03", "2\x01",
		"2\x8a", "2\x84", "3\x00", "3\x05"))
	// A read leaves its hint at record 21, mid-block, then a write of the
	// longest records adds pages under it.
	f.Add(uint16(39), ops(
		"1\x01", "1\x02", "0\x41", "1\x02", "1\x05", "0\x41", "1\x01", "1\x02", "0\x41", "1\x02",
		"1\x05", "0\x41", "1\x01", "1\x02", "0\x41", "1\x02", "1\x05", "0\x41", "1\x01", "1\x02",
		"0\x41", "1\x02", "1\x05", "0\x41", "1\x01", "1\x02", "0\x41", "1\x02", "1\x05", "0\x41",
		"1\x01", "2\x81", "1\x0f", "1\x0f", "1\x0f", "1\x0f", "1\x0f", "2\x83", "1\x01", "2\x81",
		"3\x00"))
	// Writes trim the tail to record 19, past the first records of the
	// block from 16, and a read from 28, among its last ones, seeks from the
	// tail, mid-block.
	f.Add(uint16(19), ops(
		"0\x41", "1\x0a", "0\x41", "1\x00", "0\x41", "1\x05", "0\x41", "1\x02", "1\x09", "1\x05",
		"0\x41", "1\x09", "1\x00", "1\x0a", "0\x41", "1\x08", "1\x07", "1\x08", "1\x09", "0\x41",
		"0\x41", "1\x01", "1\x06", "1\x04", "0\x41", "0\x41", "1\x06", "1\x04", "1\x00", "1\x09",
		"1\x04", "1\x08", "1\x04", "1\x03", "0\x41", "1\x0a", "1\x06", "1\x03", "1\x0e", "1\x03",
		"1\x07", "1\x00", "1\x00", "0\x41", "0\x41", "1\x0d", "1\x04", "1\x0d", "1\x06", "0\x41",
		"0\x41", "1\x00", "0\x41", "1\x05", "0\x41", "1\x0a", "1\x07", "1\x01", "0\x41", "0\x41",
		"2\x07", "2\x00", "3\x00"))
	// A two-record ring's 16 B page is outgrown by its second record, and
	// the fifth straddles the end of the added page; the reads cross it.
	f.Add(uint16(1), ops("1\x03", "1\x04", "1\x02", "0\x41", "1\x00", "2\x00", "3\x00", "1\x03", "1\x05", "2\x82", "3\x00"))
	// A longest record grows an eight-record ring to two pages, and the
	// writer shapes after it wrap them, so the tail's page is no longer the
	// first; then a run of the longest records, tick jumps between them,
	// adds pages there while the window still holds writer shapes and a
	// read left its hint among them. The reads span the added pages.
	f.Add(uint16(7), ops(
		"1\x0f", "0\x41", "1\x03", "1\x05", "1\x04", "1\x02", "1\x02", "0\x41", "1\x00",
		"1\x03", "1\x05", "1\x04", "1\x02", "1\x02", "0\x41", "1\x00",
		"1\x03", "1\x05", "1\x04", "1\x02", "1\x02", "0\x41", "1\x00", "2\x81",
		"1\x0f", "0\xc0", "1\x0f", "0\x80", "1\x0f", "2\x83", "2\x00", "3\x00"))
	// Three of the longest records grow a five-record ring to four pages,
	// then a restart keeps them: the records after it are numbered from 6,
	// straddle page ends and wrap the ring.
	f.Add(uint16(4), ops(
		"1\x0f", "0\xc0", "1\x0f", "0\x80", "1\x0f", "2\x00", "\x80\x03", "1\x03", "1\x04", "1\x02",
		"0\x41", "1\x00", "2\x00", "1\x03", "1\x04", "1\x02", "0\x41", "1\x00", "2\x82", "3\x00"))
	f.Fuzz(func(t *testing.T, capacity uint16, ops []byte) {
		c := 1 + int(capacity%200)
		r, err := NewRecorder(c)
		if err != nil {
			t.Fatal(err)
		}
		var oracle []Record // the records written since the last Resume, the first numbered base
		var base uint64
		var buf []Record
		var tick int64
		same := func(what string, got, want []Record) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("cap %d, %d written from %d: %s read %d records, want %d", c, len(oracle), base, what, len(got), len(want))
			}
			for i := range got {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("cap %d, %d written from %d: %s record %d is %+v, want %+v", c, len(oracle), base, what, i, got[i], want[i])
				}
			}
		}
		for ; len(ops) >= 2; ops = ops[2:] {
			op, arg := ops[0], ops[1]
			total := base + uint64(len(oracle))
			oldest := total - uint64(min(len(oracle), c))
			switch {
			case op&0x80 != 0 && op%4 == 0: // a restart: the next record is numbered up to 255 past the newest
				base = total + uint64(arg)
				oracle = oracle[:0]
				r.Resume(base)
			case op%4 == 0: // a step of up to ±63 ticks, or a jump anywhere
				if arg&0x80 != 0 {
					tick = int64(uint64(arg) << 57)
				} else {
					tick += int64(arg) - 64
				}
				r.SetTick(tick)
			case op%4 == 1: // a writer shape, or the longest record
				rec := longestRecord()
				if i := int(arg) % (len(writerShapes) + 1); i < len(writerShapes) {
					rec = writerShapes[i].rec
				}
				r.Record(rec)
				rec.Tick = tick
				oracle = append(oracle, rec)
			case op%4 == 2: // a cursor up to 127 past the oldest, or back from the newest
				cursor := oldest + uint64(arg&0x7f)
				if arg&0x80 != 0 {
					cursor = total - min(total, uint64(arg&0x7f))
				}
				var next uint64
				buf, next = r.Since(buf[:0], cursor)
				if next != total {
					t.Fatalf("Since(%d) returned cursor %d, want %d", cursor, next, total)
				}
				same("Since", buf, oracle[min(max(cursor, oldest), total)-base:])
			case op%4 == 3:
				m := int(arg) % (c + 2)
				want := oracle[oldest-base:]
				if m > 0 && m < len(want) {
					want = want[len(want)-m:]
				}
				buf = r.Window(buf[:0], m)
				same("Window", buf, want)
			}
			if r.Total() != base+uint64(len(oracle)) || r.Len() != min(len(oracle), c) {
				t.Fatalf("Total %d Len %d, want %d %d", r.Total(), r.Len(), base+uint64(len(oracle)), min(len(oracle), c))
			}
		}
	})
}

// ops joins FuzzRecorderOps operations, two bytes each, into one input.
func ops(each ...string) []byte {
	var b []byte
	for _, op := range each {
		b = append(b, op...)
	}
	return b
}

// BenchmarkRecorderSince reads a full 4096-record ring of the hierarchy's
// record mix two ways. "bin" is the fleet's per-bin fold: write one bin's
// records (a two-computer tenant's tick, in the order the hierarchy writes
// them: an L1 summary and its two details, two L0 decisions, the tick
// record) and read them back from the cursor the previous read returned.
// "window" reads the whole ring.
func BenchmarkRecorderSince(b *testing.B) {
	bin := []Record{writerShapes[3].rec, writerShapes[5].rec, writerShapes[4].rec, writerShapes[2].rec, writerShapes[8].rec, writerShapes[0].rec}
	fill := func(b *testing.B) *Recorder {
		r, err := NewRecorder(4096)
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; r.Total() < 3*4096; k++ {
			r.SetTick(int64(k))
			for _, rec := range bin {
				r.Record(rec)
			}
		}
		return r
	}
	b.Run("bin", func(b *testing.B) {
		r := fill(b)
		buf := make([]Record, 0, len(bin))
		cursor := r.Total()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.SetTick(int64(i))
			for _, rec := range bin {
				r.Record(rec)
			}
			buf, cursor = r.Since(buf[:0], cursor)
		}
	})
	b.Run("window", func(b *testing.B) {
		r := fill(b)
		buf := make([]Record, 0, r.Capacity())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf, _ = r.Since(buf[:0], 0)
		}
	})
}
