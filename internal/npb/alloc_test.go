package npb

import (
	"testing"
)

// Allocation-regression guards for the kernels. Grids and pencil
// scratch are allocated once per run, so the marginal cost of one more
// FT time step or MG V-cycle must stay near zero — these tests pin that
// by differencing runs with k and k+1 iterations, which cancels the
// setup cost.

func runAllocsDelta(t testing.TB, run func(iters int)) float64 {
	// Warm up so neither measured run pays first-use cost (the twiddle
	// cache).
	run(1)
	base := testing.AllocsPerRun(3, func() { run(1) })
	more := testing.AllocsPerRun(3, func() { run(3) })
	return (more - base) / 2
}

// TestFTStepAllocBound pins the allocations of one steady-state FT time
// step (evolution + inverse FFT3D + checksum). The twiddle tables are
// cached and the work grid is reused across steps, so a step's marginal
// cost is bookkeeping only.
func TestFTStepAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; bound asserted in normal builds")
	}
	perStep := runAllocsDelta(t, func(steps int) {
		if _, err := RunFT(16, 16, 16, steps, nil); err != nil {
			t.Fatal(err)
		}
	})
	if perStep > 32 {
		t.Errorf("FT time step allocates %.1f allocs/step, want <= 32", perStep)
	}
}

// TestMGVCycleAllocBound pins the allocations of one steady-state MG
// V-cycle. The hierarchy's level grids are allocated once up front, so
// a cycle's marginal cost is the fixed set of sweep closures passed to
// forPlanes (~25 at four levels) — NOT proportional to grid points. A
// per-cell or per-plane allocation regression lands in the thousands.
func TestMGVCycleAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; bound asserted in normal builds")
	}
	perCycle := runAllocsDelta(t, func(cycles int) {
		if _, err := RunMG(16, cycles, nil, false); err != nil {
			t.Fatal(err)
		}
	})
	if perCycle > 48 {
		t.Errorf("MG V-cycle allocates %.1f allocs/cycle, want <= 48", perCycle)
	}
}

// TestMGCollapseAllocsIndependentOfThreads pins what one Figure 24 point
// allocates: its loops are timing-only, so the schedule builds no
// per-thread chunk lists and 236 threads cost what 60 do, with the
// collapse on or off. Lists for every loop put thousands of objects
// back at 236 threads.
func TestMGCollapseAllocsIndependentOfThreads(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; bound asserted in normal builds")
	}
	m := model()
	for _, collapse := range []bool{false, true} {
		allocs := func(threads int) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := MGCollapseGflops(m, ClassC, phiP(threads), collapse); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, large := allocs(60), allocs(236); large > small+8 {
			t.Errorf("collapse=%v: MGCollapseGflops allocates %v objects at 236 threads, %v at 60; want within 8",
				collapse, large, small)
		}
	}
}

// BenchmarkFTStep reports the wall and allocation cost of RunFT with a
// single time step (-benchmem view of the guard above).
func BenchmarkFTStep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunFT(16, 16, 16, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMGVCycle reports the wall and allocation cost of RunMG with
// a single V-cycle.
func BenchmarkMGVCycle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunMG(16, 1, nil, false); err != nil {
			b.Fatal(err)
		}
	}
}
