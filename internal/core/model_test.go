package core

import (
	"testing"

	"maia/internal/machine"
)

// Representative workload profiles used across the model tests. These
// mirror the characters of the paper's codes: MG is streaming and
// bandwidth-bound, BT is a blocked, vectorized solver with heavy cache
// reuse, CG is sparse gather/scatter.
func mgLike() Workload {
	return Workload{Name: "mg-like", Flops: 4e11, Bytes: 1e12,
		VecFraction: 0.9, Stride: Unit, Reuse: 0.1, ParallelFraction: 0.999}
}

// gflops is the workload's achieved Gflop/s on the partition, the unit
// most of the paper's NPB figures report.
func gflops(m Model, w Workload, p machine.Partition) float64 {
	return w.Flops / m.Time(w, p).Seconds() / 1e9
}

func btLike() Workload {
	return Workload{Name: "bt-like", Flops: 1.5e12, Bytes: 1e12,
		VecFraction: 0.9, Stride: Unit, Reuse: 0.75, ParallelFraction: 0.999}
}

func cgLike() Workload {
	return Workload{Name: "cg-like", Flops: 2e11, Bytes: 1e12,
		VecFraction: 0.5, Stride: GatherScatter, Reuse: 0.35, ParallelFraction: 0.995}
}

func host16() machine.Partition {
	return machine.HostPartition(machine.NewNode(), 1)
}

func phiT(threads int) machine.Partition {
	return machine.PhiThreadsPartition(machine.NewNode(), machine.Phi0, threads)
}

// Figure 19 / 25 headline: the bandwidth-bound streaming kernel (MG) is
// the one that runs FASTER on the Phi than on the host.
func TestStreamingKernelWinsOnPhi(t *testing.T) {
	m := DefaultModel()
	host := gflops(m, mgLike(), host16())
	phi := gflops(m, mgLike(), phiT(177))
	ratio := phi / host
	if ratio < 1.05 || ratio > 1.6 {
		t.Errorf("phi/host for streaming kernel = %.2f (phi %.1f, host %.1f GF), want ~1.27",
			ratio, phi, host)
	}
}

// Cache-heavy and sparse kernels lose on the Phi, sparse losing hardest.
func TestCacheAndSparseKernelsLoseOnPhi(t *testing.T) {
	m := DefaultModel()
	btRatio := gflops(m, btLike(), host16()) / gflops(m, btLike(), phiT(177))
	if btRatio < 1.2 || btRatio > 3 {
		t.Errorf("host/phi for blocked kernel = %.2f, want ~1.5-2", btRatio)
	}
	cgRatio := gflops(m, cgLike(), host16()) / gflops(m, cgLike(), phiT(236))
	if cgRatio < btRatio {
		t.Errorf("sparse kernel (%.2f) should lose harder than blocked (%.2f)", cgRatio, btRatio)
	}
}

// The paper's threads-per-core finding for unit-stride kernels: 1 per
// core is the floor, 3 per core the sweet spot (Figure 19, Figure 25's
// MG at 177 threads).
func TestPhiThreadSweepUnitStride(t *testing.T) {
	m := DefaultModel()
	g := map[int]float64{}
	for _, th := range []int{59, 118, 177, 236} {
		g[th] = gflops(m, mgLike(), phiT(th))
	}
	if !(g[59] < g[118] && g[118] < g[177]) {
		t.Errorf("want monotone rise to 177: %v", g)
	}
	if !(g[177] > g[236]) {
		t.Errorf("3 threads/core must beat 4 for unit stride: %v", g)
	}
	if g[59] > 0.8*g[177] {
		t.Errorf("1 thread/core should be far below 3: %v", g)
	}
}

// For latency-bound (gather) kernels the 4th thread still helps —
// the paper's Cart3D finding.
func TestPhiThreadSweepGather(t *testing.T) {
	m := DefaultModel()
	g177 := gflops(m, cgLike(), phiT(177))
	g236 := gflops(m, cgLike(), phiT(236))
	if g236 <= g177 {
		t.Errorf("gather kernel: 236t (%.2f) should beat 177t (%.2f)", g236, g177)
	}
}

// Figure 24's placement effect: touching the 60th (OS) core hurts.
func TestOSCorePenalty(t *testing.T) {
	m := DefaultModel()
	clean := gflops(m, mgLike(), phiT(177))
	dirty := gflops(m, mgLike(), phiT(180))
	if dirty >= clean {
		t.Errorf("180 threads (%.1f GF) must trail 177 (%.1f GF)", dirty, clean)
	}
	if clean/dirty < 1.15 {
		t.Errorf("OS-core penalty too small: %.3f", clean/dirty)
	}
}

// Host HyperThreading: compute-intensive codes lose ~6% (Figure 25).
func TestHostHyperThreadingHurts(t *testing.T) {
	m := DefaultModel()
	ht := machine.HostPartition(machine.NewNode(), 2)
	g16 := gflops(m, btLike(), host16())
	g32 := gflops(m, btLike(), ht)
	if g32 >= g16 {
		t.Errorf("HT (%.1f) should not beat 16 threads (%.1f)", g32, g16)
	}
	if g32 < 0.85*g16 {
		t.Errorf("HT penalty too large: %.1f vs %.1f", g32, g16)
	}
}

// Ablation: without cache capture, the blocked kernel looks like STREAM
// and the Phi (wrongly) wins — demonstrating the 5.1x cache-per-core gap
// is what decides Figure 19.
func TestCacheCaptureAblation(t *testing.T) {
	m := DefaultModel()
	m.CacheCapture = false
	ratio := gflops(m, btLike(), phiT(177)) / gflops(m, btLike(), host16())
	if ratio <= 1 {
		t.Errorf("without cache capture the Phi should win the blocked kernel, got phi/host %.2f", ratio)
	}
}

// Ablation: without the latency-hiding model, one thread per core looks
// almost as good as three.
func TestThreadLatencyHidingAblation(t *testing.T) {
	m := DefaultModel()
	m.ThreadLatencyHiding = false
	pure := Workload{Name: "compute", Flops: 1e12, VecFraction: 0.9,
		Stride: Unit, ParallelFraction: 1}
	g1 := gflops(m, pure, phiT(59))
	g3 := gflops(m, pure, phiT(177))
	if g3/g1 > 1.05 {
		t.Errorf("ablated model should not reward extra threads for pure compute: %.2f vs %.2f", g3, g1)
	}
}

// Serial fractions obey Amdahl: a 5%-serial workload on 236 threads is
// dominated by the single slow in-order core.
func TestAmdahlSerialFraction(t *testing.T) {
	m := DefaultModel()
	par := Workload{Name: "p", Flops: 1e12, VecFraction: 0.9, Stride: Unit, ParallelFraction: 1}
	ser := par
	ser.ParallelFraction = 0.95
	tp := m.Time(par, phiT(236))
	ts := m.Time(ser, phiT(236))
	if ts < 2*tp {
		t.Errorf("5%% serial should at least double time on 236 threads: %v vs %v", ts, tp)
	}
}

func TestValidate(t *testing.T) {
	bad := []Workload{
		{Name: "negflops", Flops: -1},
		{Name: "negbytes", Bytes: -1},
		{Name: "vec", VecFraction: 1.5},
		{Name: "reuse", Reuse: -0.1},
		{Name: "par", ParallelFraction: 2},
	}
	for _, w := range bad {
		if w.Validate() == nil {
			t.Errorf("%s accepted", w.Name)
		}
	}
	if err := mgLike().Validate(); err != nil {
		t.Errorf("valid workload rejected: %v", err)
	}
}

func TestTimePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid workload did not panic")
		}
	}()
	DefaultModel().Time(Workload{VecFraction: 2}, host16())
}

func TestWorkloadHelpers(t *testing.T) {
	w := Workload{Flops: 100, Bytes: 50}
	s := w.Scale(3)
	if s.Flops != 300 || s.Bytes != 150 || w.Flops != 100 {
		t.Error("Scale wrong or mutated receiver")
	}
	if Unit.String() != "unit" || GatherScatter.String() != "gather-scatter" {
		t.Error("StrideClass.String wrong")
	}
}

// Absolute scale sanity: the MG-like workload lands in the tens of
// Gflop/s on the host, like the paper's 23.5 (Figure 25).
func TestAbsoluteScale(t *testing.T) {
	g := gflops(DefaultModel(), mgLike(), host16())
	if g < 15 || g > 45 {
		t.Errorf("host streaming kernel = %.1f GF, want tens of Gflop/s", g)
	}
}
