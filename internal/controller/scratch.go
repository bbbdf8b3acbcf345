package controller

// Scratch is the working memory of controller decisions: the L1's terms,
// suffix tables, probe memo, candidate masks and incumbent; the L2's term
// and suffix tables and its decision; and the L0's lookahead buffers and
// forecast environments. A controller keeps only its configuration, the
// learned artifacts it reads and its budget; every Decide works in the
// Scratch it is handed.
//
// Because every decision is a pure function of its observation (pinned by
// TestControllersHaveNoMemory), one Scratch serves any number of
// controllers of any shape, in any order, and each decides bit for bit as
// it would in a Scratch of its own. It grows to the largest shape it has
// served and is reused from then on without allocating. The zero value is
// ready for use.
//
// A Scratch belongs to the goroutine that steps the controllers — in
// hpmserve, one per fleet shard — and is not safe for concurrent use. The
// decisions L1 and L2 return alias it: an L1 decision's slices are valid
// until the next L1 Decide on the same Scratch, an L2 decision's until the
// next L2 Decide on it.
type Scratch struct {
	l0 l0Scratch
	l1 l1Scratch
	l2 l2Scratch
}

// resize returns s at length n, on its own array when that holds n and on a
// fresh one otherwise; the elements' values are whatever they were.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
