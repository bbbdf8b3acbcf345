package llc

// Pricer prices OneStep's candidates. Callers implement it on the
// controller or on a per-pass value, so a search boxes and allocates
// nothing.
type Pricer[C any] interface {
	// Price adds candidate c's cost under sample si to sum and returns the
	// new sum, so the summation order — and the mean's rounding — stays
	// the caller's.
	Price(c C, si int, sum float64) (float64, error)
	// Finish returns the candidate's cost from its sample mean, folding on
	// any per-candidate term (non-negative under pruning).
	Finish(c C, mean float64) float64
}

// Scan is one decision's running state across OneStep calls, so the
// explored count and the budget span a decision searched in several calls.
type Scan struct {
	Prune       bool // partial-mean pruning, under the NonNegativeCosts contract
	MaxExplored int  // decision budget in candidate-samples; 0 = none
	Explored    int  // candidate-samples priced so far: the §4.3 overhead metric
}

// OneStep is the one-step search of the L1, L2 and centralized
// controllers: a candidate costs Finish of the mean of its n per-sample
// costs (§4.2), and the first candidate strictly cheaper than the
// incumbent wins. It returns the winner's index and cost, or −1 and the
// incumbent. A budget trip, checked after each sample, returns ErrBudget;
// a Price error is returned as is. Under sc.Prune a candidate whose
// partial mean sum/n meets the incumbent before its last sample is
// abandoned: it could at best tie, and ties never displace the incumbent,
// so the winner and its cost are bit-identical to the unpruned scan.
//
//hpm:hotpath
func OneStep[C any, P Pricer[C]](sc *Scan, p P, cands []C, n int, incumbent float64) (int, float64, error) {
	best, cost := -1, incumbent
next:
	for ci, c := range cands {
		sum := 0.0
		for si := 0; si < n; si++ {
			var err error
			if sum, err = p.Price(c, si, sum); err != nil {
				return -1, cost, err
			}
			sc.Explored++
			if sc.MaxExplored > 0 && sc.Explored > sc.MaxExplored {
				return -1, cost, ErrBudget
			}
			if sc.Prune && si+1 < n && sum/float64(n) >= cost {
				continue next
			}
		}
		if f := p.Finish(c, sum/float64(n)); f < cost {
			best, cost = ci, f
		}
	}
	return best, cost, nil
}
