package cluster

import (
	"errors"
	"testing"

	"hierctl/internal/ckpt"
)

// TestComputerRestoreBoundsQueuedJobs: a checkpoint whose queue count
// claims more jobs than its bytes hold is corrupt. The count is bounded by
// the 16-byte (arrival, demand) pairs actually present, so the restore
// fails before it queues anything: no job is read past the end of the
// blob, where the latched reader's zeros would pass as jobs arriving at
// time 0 with no demand.
func TestComputerRestoreBoundsQueuedJobs(t *testing.T) {
	const present, claimed = 10, 80
	var w ckpt.Writer
	w.Int(int64(PowerOn))
	w.Float(0)      // bootDoneAt
	w.Int(1)        // frequency index
	w.Float(100)    // now
	w.Uint(claimed) // queued jobs
	for i := 0; i < present; i++ {
		w.Float(90 + float64(i)) // arrival
		w.Float(0.5)             // demand
	}
	c, err := NewComputer(testSpec("c"))
	if err != nil {
		t.Fatal(err)
	}
	r := ckpt.NewReader(w.Bytes())
	c.RestoreCheckpoint(r)
	if !errors.Is(r.Err(), ckpt.ErrCorrupt) {
		t.Fatalf("restore of %d claimed jobs over %d present: err %v, want ckpt.ErrCorrupt", claimed, present, r.Err())
	}
	if n := c.QueueLen(); n > present {
		t.Fatalf("restore queued %d jobs from %d present in the blob", n, present)
	}
}
