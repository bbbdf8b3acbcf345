package workload

import (
	"bytes"
	"math"
	"testing"
)

// FuzzTraceCSV is the safety pin of the tracefile: reader, the one parser
// of workload bytes from outside the process: on any input it returns an
// error or a trace the engine can run — at least one bin, a finite start,
// a finite positive step, every count finite and non-negative — and never
// panics. The committed corpus under testdata/fuzz/FuzzTraceCSV holds two
// hpmgen outputs (step, synthetic) and the malformed shapes the property
// is about.
//
//hpm:pin fuzz
func FuzzTraceCSV(f *testing.F) {
	tr, err := Synthetic(DefaultSyntheticConfig())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Slice(0, 48).WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := readTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		if tr.Len() == 0 || !finite(tr.Start) || !finite(tr.Step) || tr.Step <= 0 {
			t.Fatalf("accepted a trace of %d bins, start %v, step %v", tr.Len(), tr.Start, tr.Step)
		}
		for i, v := range tr.Values {
			if !finite(v) || v < 0 {
				t.Fatalf("accepted count %v at bin %d", v, i)
			}
		}
	})
}
