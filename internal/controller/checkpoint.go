package controller

import (
	"math"

	"hierctl/internal/ckpt"
)

// A controller's checkpoint is what it carries from one decision to the
// next: the previous decision (L1 prices switching and serving from its
// on/off vector, L2 prices moves from its split), and the explored and
// decision counts of the overhead metering. The searchers' and programs'
// tables hold nothing between decisions, and compute time is wall-clock —
// a restored controller's starts again at zero.

func checkpointCounts(w *ckpt.Writer, explored, decisions int) {
	w.Int(int64(explored))
	w.Int(int64(decisions))
}

func restoreCounts(r *ckpt.Reader, explored, decisions *int) {
	*explored = r.IntIn(0, math.MaxInt, "explored count")
	*decisions = r.IntIn(0, math.MaxInt, "decision count")
}

// Checkpoint appends the L0's overhead counts.
func (l *L0) Checkpoint(w *ckpt.Writer) { checkpointCounts(w, l.explored, l.decisions) }

// RestoreCheckpoint reads back what Checkpoint wrote.
func (l *L0) RestoreCheckpoint(r *ckpt.Reader) { restoreCounts(r, &l.explored, &l.decisions) }

// Checkpoint appends the L1's previous decision and overhead counts.
func (l *L1) Checkpoint(w *ckpt.Writer) {
	w.Bools(l.prevAlpha)
	w.Floats(l.prevGamma)
	checkpointCounts(w, l.explored, l.decisions)
}

// RestoreCheckpoint reads back what Checkpoint wrote.
func (l *L1) RestoreCheckpoint(r *ckpt.Reader) {
	r.Bools(l.prevAlpha)
	r.Floats(l.prevGamma)
	restoreCounts(r, &l.explored, &l.decisions)
}

// Checkpoint appends the L2's previous decision and overhead counts.
func (l *L2) Checkpoint(w *ckpt.Writer) {
	w.Floats(l.prevGamma)
	checkpointCounts(w, l.explored, l.decisions)
}

// RestoreCheckpoint reads back what Checkpoint wrote.
func (l *L2) RestoreCheckpoint(r *ckpt.Reader) {
	r.Floats(l.prevGamma)
	restoreCounts(r, &l.explored, &l.decisions)
}
