package main

import (
	"math"
	"math/rand"
)

// Shape of the generated arrival series: one "day" every dayBins bins, a
// lognormal multiplicative noise, and rare short flash crowds.
const (
	dayBins        = 288
	diurnalDepth   = 0.5
	noiseSigma     = 0.25
	flashProb      = 1.0 / 200
	flashFactor    = 4.0
	flashBins      = 3
	maxArrivalsBin = 1e6 // hpmserve's maxBinCount
)

// tenantSeed is the seed a tenant is created with: it drives the tenant's
// controller streams and object store inside the daemon, and the tenant's
// arrival series here.
func tenantSeed(seed int64, tenant int) int64 { return seed*100000 + int64(tenant) }

// arrivalCounts generates one tenant's per-bin arrival counts: a diurnal
// sinusoid with a per-tenant phase, times lognormal noise of unit mean,
// plus flash spikes, scaled to the workload's mean and rounded to whole
// requests. The same (seed, tenant, bins, mean) gives the same series.
func arrivalCounts(seed int64, tenant, bins int, mean float64) []float64 {
	rng := rand.New(rand.NewSource(tenantSeed(seed, tenant)))
	phase := rng.Float64() * 2 * math.Pi
	out := make([]float64, bins)
	flashLeft := 0
	for i := range out {
		diurnal := 1 + diurnalDepth*math.Sin(2*math.Pi*float64(i)/dayBins+phase)
		noise := math.Exp(noiseSigma*rng.NormFloat64() - noiseSigma*noiseSigma/2)
		if flashLeft == 0 && rng.Float64() < flashProb {
			flashLeft = flashBins
		}
		v := mean * diurnal * noise
		if flashLeft > 0 {
			v *= flashFactor
			flashLeft--
		}
		out[i] = math.Min(math.Round(v), maxArrivalsBin)
	}
	return out
}
