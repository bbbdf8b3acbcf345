package obs

// ArenaBytes exposes the arena to the external tests: its length, which
// grows only past the budget NewRecorder sets aside, and the bytes the
// retained records take.
func ArenaBytes(r *Recorder) (size, used int) { return len(r.arena), r.used }
