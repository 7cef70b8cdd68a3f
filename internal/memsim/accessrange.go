package memsim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"maia/internal/machine"
	"maia/internal/vclock"
	"maia/internal/workgroup"
)

// RangeStats aggregates what a batch of accesses observed: how many
// were served by each level (index len(levels) is main memory) and the
// total load-to-use latency charged.
type RangeStats struct {
	LevelCounts []uint64
	Latency     vclock.Time
}

// Accesses returns the total access count tallied in s.
func (s RangeStats) Accesses() uint64 {
	var n uint64
	for _, c := range s.LevelCounts {
		n += c
	}
	return n
}

// AccessRange performs n accesses at addr, addr+stride, addr+2*stride, ...
// and returns the aggregate level counts and latency. It is exactly
// equivalent to calling Access on each address in order — same hit/miss
// counters, same LRU state, same latency — but takes an analytical fast
// path for runs that stay inside one L1 line.
//
// The fast path is exact, not approximate: after Access(a) the line of a
// is MRU in L1, and a repeated MRU hit neither reorders LRU state nor
// probes outer levels, so the k follow-up accesses that land in the same
// line contribute precisely k L1 hits and k*L1-latency — which can be
// added arithmetically without walking the cache.
func (h *Hierarchy) AccessRange(addr uint64, n int, stride uint64) RangeStats {
	st := RangeStats{LevelCounts: make([]uint64, len(h.levels)+1)}
	st.Latency = h.AccessRangeInto(st.LevelCounts, addr, n, stride)
	return st
}

// AccessRangeInto is AccessRange accumulating into a caller-provided
// counts slice (len(levels)+1 entries, NOT cleared first) and returning
// the batch's total latency — the allocation-free form the repeated-pass
// sweeps use.
func (h *Hierarchy) AccessRangeInto(counts []uint64, addr uint64, n int, stride uint64) vclock.Time {
	var total vclock.Time
	if n <= 0 {
		return 0
	}
	if len(h.levels) == 0 {
		for i := 0; i < n; i++ {
			lv, lat := h.Access(addr + uint64(i)*stride)
			counts[lv]++
			total += lat
		}
		return total
	}
	l1 := h.levels[0]
	lb := uint64(l1.lineBytes)
	for i := 0; i < n; {
		a := addr + uint64(i)*stride
		lv, lat := h.Access(a)
		counts[lv]++
		total += lat
		i++
		if i >= n || stride >= lb {
			continue
		}
		// How many of the remaining accesses stay inside a's L1 line?
		var k int
		if stride == 0 {
			k = n - i
		} else {
			rem := (a/lb+1)*lb - 1 - a // bytes left in the line after a
			k = int(rem / stride)
			if k > n-i {
				k = n - i
			}
		}
		if k > 0 {
			counts[0] += uint64(k)
			total += vclock.Time(k) * l1.latency
			l1.hits += uint64(k)
			i += k
		}
	}
	return total
}

// sweepPoints runs fn(i) for i in [0,n) on a bounded worker pool and
// returns once all points finish. Points must be independent; callers
// keep determinism by writing results into index i, mirroring the
// harness engine's ordered-merge pattern. With one usable CPU (or one
// point) it degenerates to a plain sequential loop. A panic in fn
// re-raises on the caller once every worker has stopped.
func sweepPoints(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// Workers claim points from a shared counter, so a worker that
	// panics leaves its share to the others instead of stalling a feeder.
	var next atomic.Int64
	g := workgroup.New(workers)
	for w := 0; w < workers; w++ {
		g.Go(func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		})
	}
	g.Wait()
}

// sweepHier is sweepPoints with a worker-local hierarchy: building a
// Hierarchy allocates every cache set, so points share one per worker
// instead of constructing their own. Each measurement must Flush before
// it touches the hierarchy (they all do), which makes a reused hierarchy
// indistinguishable from a fresh one — the sequential case degenerates
// to the historical single-hierarchy-with-Flush pattern.
func sweepHier(proc machine.ProcessorSpec, n int, fn func(h *Hierarchy, i int)) {
	var mu sync.Mutex
	var idle []*Hierarchy
	sweepPoints(n, func(i int) {
		mu.Lock()
		var h *Hierarchy
		if k := len(idle); k > 0 {
			h, idle = idle[k-1], idle[:k-1]
		}
		mu.Unlock()
		if h == nil {
			h = MustHierarchy(proc)
		}
		fn(h, i)
		mu.Lock()
		idle = append(idle, h)
		mu.Unlock()
	})
}

// doublingSizes expands a min..max doubling sweep into its point list.
func doublingSizes(minBytes, maxBytes int) []int {
	var out []int
	for ws := minBytes; ws <= maxBytes; ws *= 2 {
		out = append(out, ws)
	}
	return out
}
