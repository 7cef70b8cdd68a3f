package npb

import (
	"fmt"
	"math"

	"maia/internal/simomp"
)

// EP — the embarrassingly parallel kernel. It generates pairs of uniform
// deviates with RANDLC, maps accepted pairs through the Marsaglia polar
// method to Gaussian deviates, and tallies them by annulus. The only
// communication is the final sum reduction, which is why the paper uses
// it as the pure-compute yardstick.

// epBatchLog2 is MK from the reference code: deviates are generated in
// batches of 2^16 pairs so workers can seek independently into the
// stream.
const epBatchLog2 = 16

// epSeed is EP's own starting seed (the reference uses e, not pi).
const epSeed = 271828183.0

// EPResult is the benchmark's verification state.
type EPResult struct {
	Sx, Sy   float64   // sums of the Gaussian deviates
	Counts   [10]int64 // deviates per annulus
	Accepted int64     // pairs passing the unit-disk test
	Pairs    int64     // pairs generated
}

// epBatch processes batch j (of 2^epBatchLog2 pairs) and accumulates into
// res. Each batch seeks the generator to its own offset, exactly like the
// reference implementation, so results are independent of the batch
// execution order.
func epBatch(j int64, res *EPResult) {
	const nk = 1 << epBatchLog2
	// Each pair consumes two deviates; batch j starts after 2*j*nk draws.
	x := RandSeek(epSeed, 2*j*nk)
	var buf [2 * nk]float64
	VRandlc(&x, MultA, buf[:])
	for i := 0; i < nk; i++ {
		x1 := 2*buf[2*i] - 1
		x2 := 2*buf[2*i+1] - 1
		t1 := x1*x1 + x2*x2
		if t1 <= 1 {
			t2 := math.Sqrt(-2 * math.Log(t1) / t1)
			t3 := x1 * t2
			t4 := x2 * t2
			l := int(math.Max(math.Abs(t3), math.Abs(t4)))
			res.Counts[l]++
			res.Accepted++
			res.Sx += t3
			res.Sy += t4
		}
	}
	res.Pairs += nk
}

// combineEP merges two partial results.
func combineEP(a, b EPResult) EPResult {
	a.Sx += b.Sx
	a.Sy += b.Sy
	a.Accepted += b.Accepted
	a.Pairs += b.Pairs
	for l, c := range b.Counts {
		a.Counts[l] += c
	}
	return a
}

// RunEP runs EP over `pairs` random pairs with the batches work-shared
// across a simomp team; team == nil runs serially. The result is combined
// in deterministic batch order, so it does not depend on the team.
func RunEP(pairs int64, team *simomp.Team) (EPResult, error) {
	if err := epCheck(pairs); err != nil {
		return EPResult{}, err
	}
	batches := int(pairs >> epBatchLog2)
	partial := make([]EPResult, batches)
	batch := func(j int) { epBatch(int64(j), &partial[j]) }
	if team == nil {
		for j := range partial {
			batch(j)
		}
	} else {
		team.ParallelFor(batches, simomp.ForOpts{Sched: simomp.Static}, batch)
	}
	var res EPResult
	for _, p := range partial {
		res = combineEP(res, p)
	}
	return res, nil
}

func epCheck(pairs int64) error {
	if pairs < 1<<epBatchLog2 || pairs%(1<<epBatchLog2) != 0 {
		return fmt.Errorf("npb: EP pair count %d must be a positive multiple of 2^%d", pairs, epBatchLog2)
	}
	return nil
}
