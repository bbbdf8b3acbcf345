package main

import (
	"encoding/json"
	"fmt"
)

// inputs is everything a run sends, generated from the seed before the
// daemon starts: the daemon sees only these requests.
type inputs struct {
	sp   spec
	seed int64
	// counts[t] is tenant t's whole arrival series for the run.
	counts [][]float64
	// creates[t] is tenant t's POST /v1/tenants body.
	creates [][]byte
	// Per connection, the calls of each phase in issue order.
	//   modeBatch:   closed
	//   modeRPC:     closed (phase A), open (phase B)
	//   modeRestart: history (before the restarts), closed (after them)
	history, closed, open [][]call
}

// buildInputs generates a workload's inputs for a run of the given
// length. Each connection owns a contiguous tenant partition, so
// per-tenant order is fixed by the seed alone.
func buildInputs(sp spec, seed int64, seconds float64) (*inputs, error) {
	in := &inputs{sp: sp, seed: seed}
	lastLo, lastHi := partition(sp.tenants, conns-1)
	smallest := lastHi - lastLo // the last partition is never the larger one
	if smallest == 0 {
		return nil, fmt.Errorf("%s: %d tenants cannot be split over %d connections", sp.name, sp.tenants, conns)
	}

	// Bins per tenant in each phase.
	historyRounds, closedRounds, openReqs := 0, sp.rounds(seconds), 0
	var bins int
	switch sp.mode {
	case modeBatch:
		bins = closedRounds * sp.binsPerEntry
	case modeRestart:
		historyRounds = sp.historyBins / sp.binsPerEntry
		bins = (historyRounds + closedRounds) * sp.binsPerEntry
	case modeRPC:
		// rounds counts phase-A requests per connection; one request is
		// one bin of one tenant, tenants of the partition in turn.
		closedRounds = sp.rounds(seconds * (1 - sp.openShare))
		openReqs = sp.openRequests(seconds)
		bins = (closedRounds + openReqs + smallest - 1) / smallest
	}

	in.counts = make([][]float64, sp.tenants)
	in.creates = make([][]byte, sp.tenants)
	for t := range in.counts {
		in.counts[t] = arrivalCounts(seed, t, bins, sp.mean)
		body, err := json.Marshal(createReq{
			ID: tenantID(t), Modules: sp.modules, ModuleSize: sp.moduleSize,
			Seed: tenantSeed(seed, t), BinSeconds: binSeconds, Fast: true,
		})
		if err != nil {
			return nil, err
		}
		in.creates[t] = body
	}

	in.history = make([][]call, conns)
	in.closed = make([][]call, conns)
	in.open = make([][]call, conns)
	for c := 0; c < conns; c++ {
		lo, hi := partition(sp.tenants, c)
		if sp.mode == modeRPC {
			var err error
			in.closed[c], err = observeCalls(in.counts, lo, hi, 0, closedRounds)
			if err != nil {
				return nil, err
			}
			in.open[c], err = observeCalls(in.counts, lo, hi, closedRounds, openReqs)
			if err != nil {
				return nil, err
			}
			continue
		}
		var err error
		in.history[c], err = batchCalls(in.counts, lo, hi, sp.binsPerEntry, 0, historyRounds)
		if err != nil {
			return nil, err
		}
		in.closed[c], err = batchCalls(in.counts, lo, hi, sp.binsPerEntry, historyRounds, closedRounds)
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// batchCalls encodes rounds [from, from+n) of a partition: each round is
// one /v1/observe:batch call with one entry of bpe bins per tenant.
func batchCalls(counts [][]float64, lo, hi, bpe, from, n int) ([]call, error) {
	calls := make([]call, n)
	for r := range calls {
		req := batchReq{Entries: make([]batchEntryReq, 0, hi-lo)}
		for t := lo; t < hi; t++ {
			at := (from + r) * bpe
			req.Entries = append(req.Entries, batchEntryReq{Tenant: tenantID(t), Counts: counts[t][at : at+bpe]})
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		calls[r] = call{path: "/v1/observe:batch", body: body, entries: hi - lo, bins: bpe, wantBin: -1}
	}
	return calls, nil
}

// observeCalls encodes requests [from, from+n) of a partition's single
// observe stream: request k feeds tenant lo + k mod size its next bin.
func observeCalls(counts [][]float64, lo, hi, from, n int) ([]call, error) {
	size := hi - lo
	calls := make([]call, n)
	for i := range calls {
		k := from + i
		t, bin := lo+k%size, k/size
		body, err := json.Marshal(observeReq{Count: counts[t][bin]})
		if err != nil {
			return nil, err
		}
		calls[i] = call{path: "/v1/tenants/" + tenantID(t) + "/observe", body: body, entries: 1, bins: 1, wantBin: bin}
	}
	return calls, nil
}

// sentBins is how many bins of tenant t the whole run applies.
func (in *inputs) sentBins(t int) int {
	n := 0
	for c := 0; c < conns; c++ {
		lo, hi := partition(in.sp.tenants, c)
		if t < lo || t >= hi {
			continue
		}
		if in.sp.mode == modeRPC {
			total, size := len(in.closed[c])+len(in.open[c]), hi-lo
			n = total / size
			if t-lo < total%size {
				n++
			}
			continue
		}
		n = (len(in.history[c]) + len(in.closed[c])) * in.sp.binsPerEntry
	}
	return n
}
