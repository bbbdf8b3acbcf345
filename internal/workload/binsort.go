package workload

// binScratch holds the reusable buffers of the per-bin arrival sort. Each
// Generator/Feed owns one, so concurrent tenants never share scratch. The
// buffers keep their full capacity across bins of any size and grow
// geometrically, so a count series settles at its peak and stops
// allocating.
type binScratch struct {
	heads []int32
	tmp   []Request
}

// grownCap is the capacity a buffer of capacity have grows to when it
// must hold need: at least double, so growth is amortized across bins.
func grownCap(have, need int) int {
	if 2*have > need {
		return 2 * have
	}
	return need
}

// sortByArrival sorts reqs ascending by Arrival and returns the sorted
// slice (which may be the scratch buffer — callers must adopt the return
// value, mirroring append semantics). Arrival offsets are uniform over
// [start, start+step), so a single distribution pass into ~one-per-request
// buckets followed by an insertion cleanup of the nearly sorted result
// runs in expected linear time — this replaced a reflection-based
// sort.Slice that dominated the fleet's per-tick profile.
//
// The sort is stable, and for the distinct keys the generator draws
// (continuous uniforms) any comparison sort yields the same permutation,
// so replacing the previous unstable sort leaves every committed run
// byte-identical.
//
//hpm:hotpath
func sortByArrival(reqs []Request, start, step float64, s *binScratch) []Request {
	n := len(reqs)
	if n < 2 {
		return reqs
	}
	if n < 16 || step <= 0 {
		insertionByArrival(reqs)
		return reqs
	}
	if cap(s.heads) < n+1 {
		s.heads = make([]int32, grownCap(cap(s.heads), n+1)) //hpm:alloc geometric scratch growth; settles at the peak bin
	}
	if cap(s.tmp) < n {
		s.tmp = make([]Request, grownCap(cap(s.tmp), n)) //hpm:alloc geometric scratch growth; settles at the peak bin
	}
	heads := s.heads[:n+1]
	for i := range heads {
		heads[i] = 0
	}
	tmp := s.tmp[:n]
	inv := float64(n) / step
	// Count bucket occupancy, then prefix-sum into scatter offsets.
	for i := range reqs {
		heads[bucketOf(reqs[i].Arrival, start, inv, n)+1]++
	}
	for b := 1; b <= n; b++ {
		heads[b] += heads[b-1]
	}
	for i := range reqs {
		b := bucketOf(reqs[i].Arrival, start, inv, n)
		tmp[heads[b]] = reqs[i]
		heads[b]++
	}
	insertionByArrival(tmp)
	// Ping-pong the buffers: the sorted scratch becomes the caller's
	// batch, the old batch becomes next bin's scratch. Both keep their
	// full capacity.
	s.tmp = reqs[:0]
	return tmp
}

// bucketOf maps an arrival in [start, start+step) to one of n buckets,
// clamping draws that land outside the bin (possible only through
// non-generator callers) into the edge buckets.
func bucketOf(arrival, start, inv float64, n int) int {
	b := int((arrival - start) * inv)
	if b < 0 {
		return 0
	}
	if b >= n {
		return n - 1
	}
	return b
}

// insertionByArrival is the stable cleanup pass: linear on the
// nearly sorted scatter output, and the full sort for tiny bins.
func insertionByArrival(reqs []Request) {
	for i := 1; i < len(reqs); i++ {
		r := reqs[i]
		j := i - 1
		for j >= 0 && reqs[j].Arrival > r.Arrival {
			reqs[j+1] = reqs[j]
			j--
		}
		reqs[j+1] = r
	}
}
