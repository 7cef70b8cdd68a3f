package memsim

import (
	"maia/internal/machine"
	"maia/internal/vclock"
)

// LatencyPoint is one point of the Figure 5 curve: the average load-to-use
// latency observed when chasing pointers through a working set of the
// given size.
type LatencyPoint struct {
	WorkingSetBytes int
	LatencyNs       float64
}

// ChaseLatency measures average load latency for one working-set size by
// actually running a pointer chase through the simulated hierarchy: the
// working set is a random cyclic permutation of cache lines (so hardware
// prefetching cannot help, exactly like the lat_mem_rd-style tools the
// paper used), walked once to warm the caches and then measured.
func ChaseLatency(h *Hierarchy, workingSetBytes int, seed uint64) LatencyPoint {
	const lineBytes = 64
	lines := workingSetBytes / lineBytes
	if lines < 1 {
		lines = 1
	}
	h.Flush()
	var total vclock.Time
	// For tiny working sets one traversal is too short to average well;
	// walk at least 4096 loads.
	n := lines
	if n < 4096 {
		n = 4096
	}
	// On 64-byte hierarchy lines the chase visits lines 0..lines-1, one
	// access each per cycle (no same-line follow-ups): a contiguous walk
	// whose serving level, when provable, does not depend on the visit
	// order, so the permutation is never built.
	if u := newUniformSim(h, lines, lineBytes); u != nil && u.extra == 0 {
		// Warm-up cycle, then the measured loads.
		u.run(lines, nil, nil)
		u.run(n, &total, nil)
	} else {
		// Slow path: a real next-pointer walk over a random cyclic
		// permutation of the lines, starting at line 0. next[i] =
		// successor line.
		rng := vclock.NewRNG(seed)
		perm := rng.Perm(lines)
		next := make([]int, lines)
		for i := 0; i < lines; i++ {
			next[perm[i]] = perm[(i+1)%lines]
		}
		// Warm-up pass: touch every line once.
		idx := 0
		for i := 0; i < lines; i++ {
			h.Access(uint64(idx) * lineBytes)
			idx = next[idx]
		}
		// Measured pass.
		for i := 0; i < n; i++ {
			_, lat := h.Access(uint64(idx) * lineBytes)
			total += lat
			idx = next[idx]
		}
	}
	return LatencyPoint{
		WorkingSetBytes: workingSetBytes,
		LatencyNs:       total.Nanoseconds() / float64(n),
	}
}

// LatencyCurve sweeps working-set sizes from minBytes to maxBytes
// (doubling) and returns the Figure 5 curve for the given processor.
// Each point keeps its historical seed (1, 2, 3, ... in sweep order)
// and measures against its own flushed hierarchy, so the concurrent
// sweep returns exactly what the sequential one did.
func LatencyCurve(proc machine.ProcessorSpec, minBytes, maxBytes int) []LatencyPoint {
	sizes := doublingSizes(minBytes, maxBytes)
	out := make([]LatencyPoint, len(sizes))
	sweepHier(proc, len(sizes), func(h *Hierarchy, i int) {
		out[i] = ChaseLatency(h, sizes[i], uint64(1+i))
	})
	return out
}
