package obs

import (
	"math"
	"testing"
	"unsafe"
)

// TestCellSize pins what a retained record costs: a tenant's resident
// ring is capacity × this, and the documented per-tenant cost of
// hpmserve's -telemetry-records (records × 48 B) is this number.
func TestCellSize(t *testing.T) {
	if got := unsafe.Sizeof(cell{}); got > 48 {
		t.Fatalf("ring cell is %d bytes, want <= 48", got)
	}
}

// sameBits compares two records field for field with the floats compared
// as bit patterns, so NaN payloads and signed zeros count.
func sameBits(a, b Record) bool {
	fa := [3]uint64{math.Float64bits(a.Gamma), math.Float64bits(a.Cost), math.Float64bits(a.Resp)}
	fb := [3]uint64{math.Float64bits(b.Gamma), math.Float64bits(b.Cost), math.Float64bits(b.Resp)}
	a.Gamma, a.Cost, a.Resp = 0, 0, 0
	b.Gamma, b.Cost, b.Resp = 0, 0, 0
	return a == b && fa == fb
}

// roundTrip writes rec at the given tick into a ring it has to wrap and
// returns what Since reads back.
func roundTrip(t *testing.T, tick int64, rec Record) Record {
	t.Helper()
	r, err := NewRecorder(3)
	if err != nil {
		t.Fatal(err)
	}
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

// The record shapes the writers emit, by writer; shapeCount of them.
const (
	shapeTick = iota
	shapeL0
	shapeL1Summary
	shapeL1Detail
	shapeL2Summary
	shapeL2Detail
	shapeCount
)

// TestCellRoundTripWriterShapes pins write → Since as the identity on
// every record shape a writer emits — the engine's tick record, the L0
// decision, the L1 and L2 summary and detail records, hpmperf's
// obs.record_ns probe — at ordinary values and at each field's extremes.
// The packed cell is lossless exactly on these shapes (see Record).
func TestCellRoundTripWriterShapes(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_dead_beef_0001)
	cases := []struct {
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

		{"tick extremes", math.MaxInt64, Record{Level: LevelTick, Module: -1, Comp: -1, FreqIdx: -1, DecideNs: math.MaxInt64, Resp: math.Inf(1), QoS: true, Stale: math.MaxInt16}},
		{"tick NaN resp", math.MinInt64, Record{Level: LevelTick, Module: -1, Comp: -1, FreqIdx: -1, DecideNs: math.MinInt64, Resp: nan, Degraded: true}},
		{"L0 extremes", math.MaxInt64, Record{Level: LevelL0, Module: math.MaxInt16, Comp: math.MaxInt16, FreqIdx: math.MaxInt16, Explored: math.MaxInt32, DecideNs: math.MaxInt64, Cost: math.Inf(-1)}},
		{"L0 NaN cost", 2, Record{Level: LevelL0, Module: 0, Comp: 0, FreqIdx: 0, Explored: 1, Cost: nan}},
		{"L1 summary all ones", 3, Record{Level: LevelL1, Module: -1, Comp: -1, FreqIdx: -1, Explored: math.MaxInt32, DecideNs: math.MaxInt64, Alpha: math.MaxUint64, Cost: math.Inf(1)}},
		{"L1 detail NaN gamma", 3, Record{Level: LevelL1, Module: 0, Comp: 63, FreqIdx: -1, On: true, Gamma: nan}},
		{"L2 summary -Inf cost", 4, Record{Level: LevelL2, Module: -1, Comp: -1, FreqIdx: -1, Explored: math.MaxInt32, Cost: math.Inf(-1)}},
		{"L2 detail -0 gamma", 4, Record{Level: LevelL2, Module: 0, Comp: -1, FreqIdx: -1, Gamma: math.Copysign(0, -1)}},
	}
	for _, tc := range cases {
		want := tc.rec
		want.Tick = tc.tick // Record stamps the recorder's tick over rec.Tick
		if got := roundTrip(t, tc.tick, tc.rec); !sameBits(got, want) {
			t.Errorf("%s: wrote %+v, read %+v", tc.name, want, got)
		}
	}
}

// shapedRecord builds a record of one writer shape from raw field values:
// the fields the shape's writer sets take the given values, the rest keep
// what that writer leaves them at.
func shapedRecord(shape uint8, module, comp, freqIdx, stale int16, explored int32, decideNs int64, slot, cost uint64, flags uint8) Record {
	rec := Record{Module: -1, Comp: -1, FreqIdx: -1}
	switch shape % shapeCount {
	case shapeTick:
		rec.Level = LevelTick
		rec.DecideNs = decideNs
		rec.Resp = math.Float64frombits(slot)
		rec.QoS = flags&1 != 0
		rec.Degraded = flags&2 != 0
		rec.Stale = stale
	case shapeL0:
		rec.Level = LevelL0
		rec.Module, rec.Comp, rec.FreqIdx = module, comp, freqIdx
		rec.Explored, rec.DecideNs = explored, decideNs
		rec.Cost = math.Float64frombits(cost)
	case shapeL1Summary:
		rec.Level = LevelL1
		rec.Module = module
		rec.Explored, rec.DecideNs = explored, decideNs
		rec.Alpha = slot
		rec.Cost = math.Float64frombits(cost)
	case shapeL1Detail:
		rec.Level = LevelL1
		rec.Module = module
		rec.Comp = comp & math.MaxInt16 // a computer index: never the summary's -1
		rec.On = flags&1 != 0
		rec.Gamma = math.Float64frombits(slot)
	case shapeL2Summary:
		rec.Level = LevelL2
		rec.Explored, rec.DecideNs = explored, decideNs
		rec.Cost = math.Float64frombits(cost)
	case shapeL2Detail:
		rec.Level = LevelL2
		rec.Module = module
		rec.Gamma = math.Float64frombits(slot)
	}
	return rec
}

// FuzzRecorderRoundTrip drives the packed cell with arbitrary field values
// in every writer shape: whatever a writer can put in a record, Since
// reads back bit for bit.
func FuzzRecorderRoundTrip(f *testing.F) {
	for shape := uint8(0); shape < shapeCount; shape++ {
		f.Add(shape, int64(shape), int16(1), int16(2), int16(3), int16(0), int32(9), int64(1500), math.Float64bits(0.5), math.Float64bits(2.5), uint8(shape))
	}
	f.Fuzz(func(t *testing.T, shape uint8, tick int64, module, comp, freqIdx, stale int16, explored int32, decideNs int64, slot, cost uint64, flags uint8) {
		want := shapedRecord(shape, module, comp, freqIdx, stale, explored, decideNs, slot, cost, flags)
		got := roundTrip(t, tick, want)
		want.Tick = tick
		if !sameBits(got, want) {
			t.Fatalf("wrote %+v, read %+v", want, got)
		}
	})
}
