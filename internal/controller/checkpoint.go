package controller

import (
	"math"
	"time"

	"hierctl/internal/ckpt"
)

// A controller's checkpoint is what it carries from one decision to the
// next: the explored and decision counts of its overhead meter, and
// nothing else. No controller keeps its decision: the L1's on/off vector
// in force and the L2's split in force come in with their observations.
// The searchers' and programs' tables hold nothing between decisions, and
// compute time is wall-clock — a restored controller's starts again at
// zero.

// meter is a controller's §4.3 overhead metering, embedded in each: what
// its decisions explored (states, map probes or priced terms), how many
// decisions it made, and their wall-clock compute time.
type meter struct {
	explored    int
	decisions   int
	computeTime time.Duration
}

// count meters one decision.
func (m *meter) count(explored int, elapsed time.Duration) {
	m.explored += explored
	m.decisions++
	m.computeTime += elapsed
}

// Overhead reports the accumulated overhead counters: total explored,
// number of decisions, and wall-clock compute time.
func (m *meter) Overhead() (explored, decisions int, compute time.Duration) {
	return m.explored, m.decisions, m.computeTime
}

// Checkpoint appends the overhead counts.
func (m *meter) Checkpoint(w *ckpt.Writer) {
	w.Int(int64(m.explored))
	w.Int(int64(m.decisions))
}

// RestoreCheckpoint reads back what Checkpoint wrote.
func (m *meter) RestoreCheckpoint(r *ckpt.Reader) {
	m.explored = r.IntIn(0, math.MaxInt, "explored count")
	m.decisions = r.IntIn(0, math.MaxInt, "decision count")
}
