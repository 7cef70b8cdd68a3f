package memsim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"maia/internal/machine"
	"maia/internal/workgroup"
)

// AccessRangeInto performs n accesses at addr, addr+stride, ... and
// tallies their serving levels into counts (len(levels)+1 entries, index
// len(levels) is main memory, NOT cleared first). It is exactly
// equivalent to calling Access on each address in order — same counters
// and LRU state — but counts the follow-up accesses that stay inside the
// L1 line just accessed arithmetically: that line is MRU in L1, and a
// repeated MRU hit neither reorders LRU state nor probes outer levels, so
// k of them are precisely k L1 hits.
func (h *Hierarchy) AccessRangeInto(counts []uint64, addr uint64, n int, stride uint64) {
	for i := 0; i < n; {
		a := addr + uint64(i)*stride
		lv, _ := h.Access(a)
		counts[lv]++
		i++
		if i >= n || len(h.levels) == 0 || stride >= uint64(h.levels[0].lineBytes) {
			continue
		}
		l1 := h.levels[0]
		lb := uint64(l1.lineBytes)
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
			l1.hits += uint64(k)
			i += k
		}
	}
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
