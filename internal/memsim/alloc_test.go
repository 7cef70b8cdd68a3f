package memsim

import (
	"runtime"
	"testing"

	"maia/internal/machine"
)

// Allocation-regression guards for the closed form. A provable point
// prices in O(levels) arithmetic plus O(accesses) float additions and
// allocates only its engine (and its counts slice); a regression that
// reintroduces per-point buffers or per-access allocation trips these.

// TestChaseLatencySweepAllocBound pins the end-to-end chase cost: a
// provable ChaseLatency performs thousands of virtual accesses (a
// million at 64 MB) but allocates only its engine — never the
// permutation.
func TestChaseLatencySweepAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; bound asserted in normal builds")
	}
	withFastPath(func() {
		h := MustHierarchy(machine.SandyBridge())
		for _, ws := range []int{8 * 64, 64 << 20} { // 8 lines (4096 measured accesses); DRAM
			allocs := testing.AllocsPerRun(5, func() {
				ChaseLatency(h, ws, 42)
			})
			if allocs > 2 {
				t.Errorf("ChaseLatency allocated %.1f times for a %d B chase, want <= 2", allocs, ws)
			}
		}
	})
}

// TestFig5SweepAllocBound pins the end-to-end Figure 5 sweep: the full
// 4 KB..64 MB latency curve on both machines. Before the flat cache
// backing, the pooled permutations, and the all-miss proof, this shape
// cost ~19.6k mallocs and ~202 MB of allocation; it now sits near 1.1k
// and 36 MB. The bounds leave ~4x headroom so only a real regression
// (per-set slices, per-point permutations) trips them.
func TestFig5SweepAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; bound asserted in normal builds")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	LatencyCurve(machine.SandyBridge(), 4<<10, 64<<20)
	LatencyCurve(machine.XeonPhi5110P(), 4<<10, 64<<20)
	runtime.ReadMemStats(&after)
	if mallocs := after.Mallocs - before.Mallocs; mallocs > 5000 {
		t.Errorf("fig5-shaped sweep performed %d mallocs, want <= 5000", mallocs)
	}
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 128<<20 {
		t.Errorf("fig5-shaped sweep allocated %d bytes, want <= %d", bytes, 128<<20)
	}
}

// TestStridedSweepAllocBound is the same guard for the strided sweep
// behind Figures 5–6: ~4K accesses over a 16-line footprint allocate
// only the counts slice and the engine.
func TestStridedSweepAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; bound asserted in normal builds")
	}
	withFastPath(func() {
		spec := machine.SandyBridge()
		h := MustHierarchy(spec)
		allocs := testing.AllocsPerRun(5, func() {
			StridedBandwidth(h, spec, 16*64, 64, 8)
		})
		if allocs > 2 {
			t.Errorf("StridedBandwidth allocated %.1f times for a 16-line sweep, want <= 2", allocs)
		}
	})
}
