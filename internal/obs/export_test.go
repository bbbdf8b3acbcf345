package obs

// ArenaBytes exposes the pages to the external tests: the bytes they hold,
// which grow only past what NewRecorder sets aside, and the bytes the
// retained records take.
func ArenaBytes(r *Recorder) (size, used int) {
	r.trim(r.Oldest())
	return len(r.pages) << r.shift, int(r.end - r.tail.pos)
}

// addedPages returns how many pages r holds past those NewRecorder
// allocated.
func addedPages(r *Recorder) int {
	page := 1 << r.shift
	return len(r.pages) - (r.capacity*initialRecordBytes+page-1)/page
}

// PageBytes is the page size of a ring of 256 records or more.
const PageBytes = 1 << maxPageShift

// InitialRecordBytes is what NewRecorder sets aside per record.
const InitialRecordBytes = initialRecordBytes

// CodedLengths codes recs as a recorder that wrote them from sequence
// number 0 would and calls f with each one's length and the tick it was
// coded against: the predicted one, 0 for a block's first.
func CodedLengths(recs []Record, f func(i, n int, origin int64)) {
	var buf [maxRecordSize]byte
	var p pred
	for i := range recs {
		if i%anchorStride == 0 {
			p = resetPred
		}
		origin := p.nextTick()
		f(i, encode(&buf, &recs[i], &p), origin)
	}
}

// ParentLength returns the length of rec's parent form, the self-contained
// one every record took before records were coded against their block's
// predecessors: a two-byte header, then each field it marks present, the
// tick as its delta from origin.
func ParentLength(rec *Record, origin int64) int {
	var buf [maxRecordSize]byte
	n := encodeFallback(&buf, rec, origin)
	if !rec.Degraded && rec.Level <= LevelL2 {
		n-- // the fallback's extension byte, which flags it
	}
	return n
}

// WriterRecords returns the record shapes each writer emits, each stamped
// with its tick.
func WriterRecords() []Record {
	recs := make([]Record, len(writerShapes))
	for i, tc := range writerShapes {
		recs[i] = tc.rec
		recs[i].Tick = tc.tick
	}
	return recs
}
