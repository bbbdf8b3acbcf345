package obs

// ArenaBytes exposes the arena to the external tests: its length, which
// grows only past the budget NewRecorder sets aside, and the bytes the
// retained records take.
func ArenaBytes(r *Recorder) (size, used int) {
	r.trim(r.Oldest())
	return len(r.arena), r.used
}

// RecordBudget is the average arena bytes a record is budgeted.
const RecordBudget = recordBudget
