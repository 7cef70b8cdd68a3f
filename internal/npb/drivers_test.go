package npb

import (
	"errors"
	"testing"

	"maia/internal/core"
	"maia/internal/machine"
)

func model() core.Model        { return core.DefaultModel() }
func node() *machine.Node      { return machine.NewNode() }
func hostP() machine.Partition { return machine.HostPartition(node(), 1) }
func phiP(t int) machine.Partition {
	return machine.PhiThreadsPartition(node(), machine.Phi0, t)
}

// --- problem table ---

var (
	allBenchmarks = []Benchmark{EP, CG, MG, FT, IS, BT, LU, SP}
	allClasses    = []Class{ClassS, ClassW, ClassA, ClassB, ClassC}
)

func TestSizeTableComplete(t *testing.T) {
	for _, b := range allBenchmarks {
		for _, c := range allClasses {
			s, err := SizeOf(b, c)
			if err != nil {
				t.Errorf("SizeOf(%v, %v): %v", b, c, err)
				continue
			}
			if s.Points() <= 0 || s.Iters <= 0 {
				t.Errorf("SizeOf(%v, %v) = %+v", b, c, s)
			}
			w, err := Profile(b, c)
			if err != nil {
				t.Errorf("Profile(%v, %v): %v", b, c, err)
				continue
			}
			if w.Flops <= 0 {
				t.Errorf("Profile(%v, %v) has no flops", b, c)
			}
			if err := w.Validate(); err != nil {
				t.Errorf("Profile(%v, %v): %v", b, c, err)
			}
			if mem, err := MemoryBytes(b, c); err != nil || mem <= 0 {
				t.Errorf("MemoryBytes(%v, %v) = %d, %v", b, c, mem, err)
			}
		}
	}
}

// Classes grow monotonically in work.
func TestClassesGrow(t *testing.T) {
	for _, b := range allBenchmarks {
		prev := 0.0
		for _, c := range allClasses {
			w, err := Profile(b, c)
			if err != nil {
				t.Fatal(err)
			}
			if w.Flops <= prev {
				t.Errorf("%v: class %v flops %.3g not above previous %.3g", b, c, w.Flops, prev)
			}
			prev = w.Flops
		}
	}
}

// Section 6.8.2: FT class C needs ~10 GB, more than the Phi's 8 GB.
func TestFTClassCFootprint(t *testing.T) {
	mem, err := MemoryBytes(FT, ClassC)
	if err != nil {
		t.Fatal(err)
	}
	gb := float64(mem) / (1 << 30)
	if gb < 9 || gb > 11 {
		t.Errorf("FT.C footprint = %.1f GB, want ~10", gb)
	}
}

// --- Figure 19: NPB-OMP ---

func TestFig19HostWinsExceptMG(t *testing.T) {
	m := model()
	n := node()
	for _, b := range Fig19Benchmarks() {
		host, phi, err := OMPThreadSweep(m, b, ClassC, n)
		if err != nil {
			t.Fatal(err)
		}
		best := BestPhi(phi)
		ratio := host.Gflops / best.Gflops
		if b == MG {
			if ratio >= 1 {
				t.Errorf("MG: host/bestPhi = %.2f, want Phi to win (paper: 23.5 vs 29.9 GF)", ratio)
			}
		} else if ratio <= 1 {
			t.Errorf("%v: host/bestPhi = %.2f, want host to win", b, ratio)
		}
	}
}

func TestFig19PhiThreadBehaviour(t *testing.T) {
	m := model()
	n := node()
	for _, b := range Fig19Benchmarks() {
		_, phi, err := OMPThreadSweep(m, b, ClassC, n)
		if err != nil {
			t.Fatal(err)
		}
		// One thread per core is the floor in native mode.
		min := phi[0]
		for _, r := range phi[1:] {
			if r.Gflops < min.Gflops {
				min = r
			}
		}
		if min.Partition.ThreadsPerCore != 1 {
			t.Errorf("%v: minimum at %v, want 1 thread/core", b, min.Partition)
		}
		// The sweet spot is 3 or 4 threads per core, never 1 or 2.
		best := BestPhi(phi)
		if tpc := best.Partition.ThreadsPerCore; tpc < 3 {
			t.Errorf("%v: best at %d threads/core, want 3 or 4", b, tpc)
		}
	}
}

func TestFig19BTBestCGWorstOnPhi(t *testing.T) {
	m := model()
	n := node()
	gf := map[Benchmark]float64{}
	for _, b := range Fig19Benchmarks() {
		_, phi, err := OMPThreadSweep(m, b, ClassC, n)
		if err != nil {
			t.Fatal(err)
		}
		gf[b] = BestPhi(phi).Gflops
	}
	for _, b := range Fig19Benchmarks() {
		if b != BT && gf[b] >= gf[BT] {
			t.Errorf("%v (%.1f GF) should not beat BT (%.1f GF) on the Phi", b, gf[b], gf[BT])
		}
		if b != CG && gf[b] <= gf[CG] {
			t.Errorf("%v (%.1f GF) should beat CG (%.1f GF) on the Phi", b, gf[b], gf[CG])
		}
	}
}

// --- Figure 20: NPB-MPI ---

func TestFig20RankValidation(t *testing.T) {
	cases := []struct {
		b     Benchmark
		ranks int
		ok    bool
	}{
		{CG, 64, true}, {CG, 128, true}, {CG, 100, false},
		{BT, 64, true}, {BT, 121, true}, {BT, 169, true}, {BT, 225, true}, {BT, 128, false},
		{SP, 121, true}, {SP, 120, false},
		{MG, 3, false}, {FT, 0, false},
	}
	for _, c := range cases {
		if got := ValidRankCount(c.b, c.ranks); got != c.ok {
			t.Errorf("ValidRankCount(%v, %d) = %v, want %v", c.b, c.ranks, got, c.ok)
		}
	}
	if _, err := MPIRun(model(), BT, ClassC, machine.Phi0, 128, node()); err == nil {
		t.Error("BT with 128 ranks accepted")
	}
}

// Figure 20's headline failure: FT class C cannot run on the Phi.
func TestFig20FTOOMOnPhi(t *testing.T) {
	_, err := MPIRun(model(), FT, ClassC, machine.Phi0, 64, node())
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("FT.C on Phi: err = %v, want ErrOOM", err)
	}
	// It runs on the host's 32 GB. (Skipped under the race detector:
	// the run materializes multi-GB transpose buffers and the detector's
	// shadow memory would OOM small machines.)
	if !raceEnabled {
		if _, err := MPIRun(model(), FT, ClassC, machine.Host, 16, node()); err != nil {
			t.Fatalf("FT.C on host failed: %v", err)
		}
	}
	// And smaller classes fit on the Phi.
	if _, err := MPIRun(model(), FT, ClassA, machine.Phi0, 64, node()); err != nil {
		t.Fatalf("FT.A on Phi failed: %v", err)
	}
}

func TestFig20HostBeatsPhiMPI(t *testing.T) {
	m := model()
	n := node()
	for _, b := range []Benchmark{CG, LU, BT, SP} {
		host, err := MPIRun(m, b, ClassC, machine.Host, 16, n)
		if err != nil {
			t.Fatal(err)
		}
		ranks := 64
		phi, err := MPIRun(m, b, ClassC, machine.Phi0, ranks, n)
		if err != nil {
			t.Fatal(err)
		}
		if host.Gflops <= phi.Gflops {
			t.Errorf("%v: host16 %.1f GF should beat phi%d %.1f GF", b, host.Gflops, ranks, phi.Gflops)
		}
	}
}

func TestMPIRunDeterministic(t *testing.T) {
	m := model()
	n := node()
	a, err := MPIRun(m, CG, ClassB, machine.Phi0, 64, n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MPIRun(m, CG, ClassB, machine.Phi0, 64, n)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time {
		t.Fatalf("MPI run nondeterministic: %v vs %v", a.Time, b.Time)
	}
}

// --- Figure 24: loop collapse ---

func TestFig24CollapseGains(t *testing.T) {
	m := model()
	// Collapse helps on the Phi at every thread count...
	for _, th := range []int{59, 118, 177, 236} {
		g0, err := MGCollapseGflops(m, ClassC, phiP(th), false)
		if err != nil {
			t.Fatal(err)
		}
		g1, err := MGCollapseGflops(m, ClassC, phiP(th), true)
		if err != nil {
			t.Fatal(err)
		}
		if g1 <= g0 {
			t.Errorf("phi %dt: collapse gain %.1f%%, want positive", th, (g1/g0-1)*100)
		}
	}
	// ...by roughly the paper's 25%+ at 4 threads per core...
	g0, _ := MGCollapseGflops(m, ClassC, phiP(236), false)
	g1, _ := MGCollapseGflops(m, ClassC, phiP(236), true)
	if gain := (g1/g0 - 1) * 100; gain < 20 {
		t.Errorf("236t collapse gain = %.1f%%, want >= 20%%", gain)
	}
	// ...and slightly hurts the host (paper: -1%).
	h0, _ := MGCollapseGflops(m, ClassC, hostP(), false)
	h1, _ := MGCollapseGflops(m, ClassC, hostP(), true)
	if h1 >= h0 {
		t.Errorf("host: collapse should cost a little (got %+.1f%%)", (h1/h0-1)*100)
	}
	if h1 < 0.95*h0 {
		t.Errorf("host: collapse penalty too big: %+.1f%%", (h1/h0-1)*100)
	}
}

// Figure 24's second finding: 59/118/177/236 threads far outperform
// 60/120/180/240 (the OS core).
func TestFig24OSCorePlacements(t *testing.T) {
	m := model()
	for _, pair := range [][2]int{{59, 60}, {118, 120}, {177, 180}, {236, 240}} {
		clean, err := MGCollapseGflops(m, ClassC, phiP(pair[0]), false)
		if err != nil {
			t.Fatal(err)
		}
		dirty, err := MGCollapseGflops(m, ClassC, phiP(pair[1]), false)
		if err != nil {
			t.Fatal(err)
		}
		if clean <= dirty*1.1 {
			t.Errorf("%dt (%.1f GF) should clearly beat %dt (%.1f GF)",
				pair[0], clean, pair[1], dirty)
		}
	}
}

// --- Figures 25-27: MG modes and offload ---

func TestFig25MGModes(t *testing.T) {
	m := model()
	n := node()
	host, err := OMPTime(m, MG, ClassC, machine.HostPartition(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	ht, err := OMPTime(m, MG, ClassC, machine.HostPartition(n, 2))
	if err != nil {
		t.Fatal(err)
	}
	phi, err := OMPTime(m, MG, ClassC, phiP(177))
	if err != nil {
		t.Fatal(err)
	}
	// Native Phi beats native host (paper: 29.9 vs 23.5 GF, +27%).
	if phi.Gflops <= host.Gflops {
		t.Errorf("MG native: phi %.1f GF should beat host %.1f GF", phi.Gflops, host.Gflops)
	}
	// HyperThreading costs the host a little (paper: -6%).
	if ht.Gflops >= host.Gflops || ht.Gflops < 0.85*host.Gflops {
		t.Errorf("HT = %.1f GF vs host %.1f GF, want a small deficit", ht.Gflops, host.Gflops)
	}
	// Every offload variant is far below both native modes.
	for _, v := range MGOffloadVariants() {
		r, err := MGOffload(m, ClassC, n, v)
		if err != nil {
			t.Fatal(err)
		}
		if r.Gflops >= host.Gflops || r.Gflops >= phi.Gflops {
			t.Errorf("%v: %.2f GF should trail both native modes", v, r.Gflops)
		}
	}
}

func TestFig26OffloadOverheadOrdering(t *testing.T) {
	m := model()
	n := node()
	var results []MGOffloadResult
	for _, v := range MGOffloadVariants() {
		r, err := MGOffload(m, ClassC, n, v)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
		// All three overhead components are present.
		if r.Report.HostTime <= 0 || r.Report.TransferTime <= 0 || r.Report.PhiTime <= 0 {
			t.Errorf("%v: incomplete overhead decomposition: %+v", v, r.Report)
		}
	}
	// Loop >> subroutine >> whole, in overhead, invocations and data.
	for i := 1; i < len(results); i++ {
		a, b := results[i-1], results[i]
		if a.Report.Overhead() <= b.Report.Overhead() {
			t.Errorf("%v overhead (%v) should exceed %v (%v)",
				a.Variant, a.Report.Overhead(), b.Variant, b.Report.Overhead())
		}
		if a.Report.Invocations <= b.Report.Invocations {
			t.Errorf("%v invocations (%d) should exceed %v (%d)",
				a.Variant, a.Report.Invocations, b.Variant, b.Report.Invocations)
		}
		dataA := a.Report.BytesIn + a.Report.BytesOut
		dataB := b.Report.BytesIn + b.Report.BytesOut
		if dataA <= dataB {
			t.Errorf("%v data (%d) should exceed %v (%d)", a.Variant, dataA, b.Variant, dataB)
		}
	}
	// PCIe transfer dominates the fine-grained variant's overhead.
	loop := results[0].Report
	if loop.TransferTime < loop.HostTime && loop.TransferTime < loop.PhiTime {
		t.Error("loop-variant overhead should be transfer-dominated")
	}
}

func TestOMPTimeErrors(t *testing.T) {
	if _, err := OMPTime(model(), Benchmark(99), ClassC, hostP()); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := OMPTime(model(), MG, Class('Z'), hostP()); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestBenchmarkStrings(t *testing.T) {
	if EP.String() != "EP" || SP.String() != "SP" || Benchmark(42).String() == "" {
		t.Error("Benchmark.String wrong")
	}
	if ClassC.String() != "C" {
		t.Error("Class.String wrong")
	}
	if OffloadLoop.String() == "" || MGOffloadVariant(9).String() == "" {
		t.Error("variant String wrong")
	}
}

// The pipelined-offload extension: same invocations and data as the
// synchronous subroutine variant, meaningfully faster, still behind
// native Phi (PCIe volume, not scheduling, is the fundamental limit).
func TestMGOffloadPipelined(t *testing.T) {
	m := model()
	n := node()
	sync, err := MGOffload(m, ClassC, n, OffloadSubroutine)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := MGOffloadPipelined(m, ClassC, n)
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Time >= sync.Time {
		t.Fatalf("pipelined (%v) should beat synchronous (%v)", pipe.Time, sync.Time)
	}
	if pipe.Report.BytesIn != sync.Report.BytesIn || pipe.Report.Invocations != sync.Report.Invocations {
		t.Fatalf("pipelined run changed the transfer plan: %+v vs %+v", pipe.Report, sync.Report)
	}
	native, err := OMPTime(m, MG, ClassC, machine.PhiThreadsPartition(n, machine.Phi0, 177))
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Gflops >= native.Gflops {
		t.Fatalf("pipelined offload (%.1f GF) should still trail native Phi (%.1f GF)",
			pipe.Gflops, native.Gflops)
	}
}
