// Benchmarks: one per reproduced table/figure (running the experiment
// end to end through the harness), plus ablations for the design choices
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
package main_test

import (
	"io"
	"testing"

	"maia/internal/apps/cart3d"
	"maia/internal/apps/overflow"
	"maia/internal/core"
	"maia/internal/harness"
	"maia/internal/machine"
	"maia/internal/memsim"
	"maia/internal/npb"
	"maia/internal/pcie"
	"maia/internal/simmpi"
	"maia/internal/simomp"
)

// benchExperiment runs one harness experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := harness.Paper().ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	env := harness.DefaultEnv()
	env.Quick = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1SystemCharacteristics(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig04STREAM(b *testing.B)                 { benchExperiment(b, "fig4") }
func BenchmarkFig05MemoryLatency(b *testing.B)          { benchExperiment(b, "fig5") }
func BenchmarkFig06BandwidthPerCore(b *testing.B)       { benchExperiment(b, "fig6") }
func BenchmarkFig07MPILatencyPCIe(b *testing.B)         { benchExperiment(b, "fig7") }
func BenchmarkFig08MPIBandwidthPCIe(b *testing.B)       { benchExperiment(b, "fig8") }
func BenchmarkFig09UpdateGain(b *testing.B)             { benchExperiment(b, "fig9") }
func BenchmarkFig10SendRecv(b *testing.B)               { benchExperiment(b, "fig10") }
func BenchmarkFig11Bcast(b *testing.B)                  { benchExperiment(b, "fig11") }
func BenchmarkFig12Allreduce(b *testing.B)              { benchExperiment(b, "fig12") }
func BenchmarkFig13Allgather(b *testing.B)              { benchExperiment(b, "fig13") }
func BenchmarkFig14Alltoall(b *testing.B)               { benchExperiment(b, "fig14") }
func BenchmarkFig15OMPSync(b *testing.B)                { benchExperiment(b, "fig15") }
func BenchmarkFig16OMPSched(b *testing.B)               { benchExperiment(b, "fig16") }
func BenchmarkFig17IO(b *testing.B)                     { benchExperiment(b, "fig17") }
func BenchmarkFig18OffloadBW(b *testing.B)              { benchExperiment(b, "fig18") }
func BenchmarkFig19NPBOpenMP(b *testing.B)              { benchExperiment(b, "fig19") }
func BenchmarkFig20NPBMPI(b *testing.B)                 { benchExperiment(b, "fig20") }
func BenchmarkFig21Cart3D(b *testing.B)                 { benchExperiment(b, "fig21") }
func BenchmarkFig22Overflow(b *testing.B)               { benchExperiment(b, "fig22") }
func BenchmarkFig23OverflowSymmetric(b *testing.B)      { benchExperiment(b, "fig23") }
func BenchmarkFig24LoopCollapse(b *testing.B)           { benchExperiment(b, "fig24") }
func BenchmarkFig25MGModes(b *testing.B)                { benchExperiment(b, "fig25") }
func BenchmarkFig26OffloadOverhead(b *testing.B)        { benchExperiment(b, "fig26") }
func BenchmarkFig27OffloadCost(b *testing.B)            { benchExperiment(b, "fig27") }

// --- Ablations: the design choices behind the headline effects --------

// The GDDR5 open-bank limit: Figure 4's drop beyond 118 threads.
func BenchmarkAblationBankLimit(b *testing.B) {
	node := machine.NewNode()
	threads := []int{59, 118, 177, 236}
	with := memsim.DefaultStreamConfig()
	without := memsim.StreamConfig{BankLimit: false}
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range memsim.StreamCurve(node, machine.Phi0, threads, with) {
			sink += p.TriadGBs
		}
		for _, p := range memsim.StreamCurve(node, machine.Phi0, threads, without) {
			sink -= p.TriadGBs
		}
	}
	_ = sink
}

// The SCIF provider switch at 256 KB: Figures 8-9's large-message gain.
func BenchmarkAblationSCIFSwitch(b *testing.B) {
	withSwitch := pcie.NewStack(pcie.PostUpdate)
	noSwitch := pcie.NewStack(pcie.PostUpdate)
	cfg := pcie.DefaultDAPLConfig()
	cfg.ProviderSwitchBytes = 1 << 30
	noSwitch.SetDAPLConfig(cfg)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for m := 1; m <= 4<<20; m *= 4 {
			sink += withSwitch.Bandwidth(pcie.HostPhi0, m) - noSwitch.Bandwidth(pcie.HostPhi0, m)
		}
	}
	_ = sink
}

// The allgather algorithm switch: Figure 13's 2-4 KB jump.
func BenchmarkAblationAllgatherSwitch(b *testing.B) {
	mk := func(switchBytes int) simmpi.Config {
		return simmpi.Config{
			Ranks:                simmpi.PhiPlacement(machine.Phi0, 64, 1),
			AllgatherSwitchBytes: switchBytes,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simmpi.CollectiveTime(mk(2<<10), simmpi.AllgatherKind, 4096, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := simmpi.CollectiveTime(mk(1<<20), simmpi.AllgatherKind, 4096, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// The in-order latency-hiding thread curve: why 1 thread/core starves.
func BenchmarkAblationThreadLatencyHiding(b *testing.B) {
	with := core.DefaultModel()
	without := core.DefaultModel()
	without.ThreadLatencyHiding = false
	node := machine.NewNode()
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range []core.Model{with, without} {
			for _, th := range []int{59, 177} {
				r, err := npb.OMPTime(m, npb.BT, npb.ClassC,
					machine.PhiThreadsPartition(node, machine.Phi0, th))
				if err != nil {
					b.Fatal(err)
				}
				sink += r.Gflops
			}
		}
	}
	_ = sink
}

// The cache-capture model: why the host wins everything but MG (Fig 19).
func BenchmarkAblationCacheCapture(b *testing.B) {
	with := core.DefaultModel()
	without := core.DefaultModel()
	without.CacheCapture = false
	node := machine.NewNode()
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range []core.Model{with, without} {
			host, phi, err := npb.OMPThreadSweep(m, npb.BT, npb.ClassC, node)
			if err != nil {
				b.Fatal(err)
			}
			sink += host.Gflops - npb.BestPhi(phi).Gflops
		}
	}
	_ = sink
}

// The OS-core placement penalty: Figure 24's 59-vs-60 thread gap.
func BenchmarkAblationOSCore(b *testing.B) {
	m := core.DefaultModel()
	node := machine.NewNode()
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, th := range []int{177, 180} {
			g, err := npb.MGCollapseGflops(m, npb.ClassC,
				machine.PhiThreadsPartition(node, machine.Phi0, th), false)
			if err != nil {
				b.Fatal(err)
			}
			sink += g
		}
	}
	_ = sink
}

// The load balancer's zone-splitting granularity (Figure 23's symmetric
// imbalance): decomposition cost itself.
func BenchmarkDecomposeSymmetric(b *testing.B) {
	d := overflow.DLRF6Large()
	speeds := make([]float64, 32)
	for i := range speeds {
		speeds[i] = 1 + float64(i%3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := overflow.Decompose(d, speeds); err != nil {
			b.Fatal(err)
		}
	}
}

// Raw engine benchmarks: the simulators themselves.

func BenchmarkEngineCacheHierarchy(b *testing.B) {
	h := memsim.MustHierarchy(machine.SandyBridge())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(uint64(i*64) % (1 << 22))
	}
}

func BenchmarkEngineMPIAllreduce(b *testing.B) {
	cfg := simmpi.Config{Ranks: simmpi.HostPlacement(16, 1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simmpi.CollectiveTime(cfg, simmpi.AllreduceKind, 1024, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineOMPDynamicSchedule(b *testing.B) {
	rt := simomp.New(machine.PhiThreadsPartition(machine.NewNode(), machine.Phi0, 236))
	team := simomp.NewTeam(rt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		team.For(1024, simomp.ForOpts{Sched: simomp.Dynamic, Chunk: 4}, nil)
	}
}

func BenchmarkKernelMGVCycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := npb.RunMG(16, 1, nil, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelCart3DStep(b *testing.B) {
	s, err := cart3d.NewSolver(16, 16, 16)
	if err != nil {
		b.Fatal(err)
	}
	s.AddPressurePulse(0.1)
	dt := s.StableDt(0.4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(dt, nil)
	}
}

// --- Engine: sequential vs parallel full-suite regeneration -----------

// benchRunAll regenerates the whole suite per iteration at the given
// worker count (0 = the sequential RunAll path). On a multi-core box the
// worker pool wins by roughly min(workers, cores, suite skew) — the
// experiments are embarrassingly parallel once each runs against its own
// cloned Env.
func benchRunAll(b *testing.B, workers int) {
	b.Helper()
	reg := harness.Paper()
	env := harness.DefaultEnv()
	env.Quick = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if workers == 0 {
			if err := reg.RunAll(io.Discard, env); err != nil {
				b.Fatal(err)
			}
			continue
		}
		if _, err := harness.RunExperiments(io.Discard, env, reg.All(), workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuiteSequential(b *testing.B) { benchRunAll(b, 0) }
func BenchmarkSuiteWorkers1(b *testing.B)   { benchRunAll(b, 1) }
func BenchmarkSuiteWorkers2(b *testing.B)   { benchRunAll(b, 2) }
func BenchmarkSuiteWorkers4(b *testing.B)   { benchRunAll(b, 4) }
func BenchmarkSuiteWorkers8(b *testing.B)   { benchRunAll(b, 8) }

// --- Extension benchmarks ---------------------------------------------

func benchExtension(b *testing.B, id string) {
	b.Helper()
	benchExperiment(b, id)
}

func BenchmarkExtOffloadPipeline(b *testing.B) { benchExtension(b, "ext-offload-pipeline") }
func BenchmarkExtCheckpoint(b *testing.B)      { benchExtension(b, "ext-checkpoint") }
func BenchmarkExtProfile(b *testing.B)         { benchExtension(b, "ext-profile") }
func BenchmarkExtStride(b *testing.B)          { benchExtension(b, "ext-stride") }

// Synchronous vs pipelined offload, head to head.
func BenchmarkAblationOffloadPipelining(b *testing.B) {
	m := core.DefaultModel()
	node := machine.NewNode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := npb.MGOffload(m, npb.ClassC, node, npb.OffloadSubroutine); err != nil {
			b.Fatal(err)
		}
		if _, err := npb.MGOffloadPipelined(m, npb.ClassC, node); err != nil {
			b.Fatal(err)
		}
	}
}

// The long-message broadcast switch (van de Geijn vs binomial).
func BenchmarkAblationBcastLong(b *testing.B) {
	long := simmpi.Config{Ranks: simmpi.HostPlacement(16, 1)}
	binom := simmpi.Config{Ranks: simmpi.HostPlacement(16, 1), BcastLongBytes: 1 << 30}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simmpi.CollectiveTime(long, simmpi.BcastKind, 4<<20, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := simmpi.CollectiveTime(binom, simmpi.BcastKind, 4<<20, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// Real distributed kernels end to end (execution + virtual time).
func BenchmarkKernelCGMPI(b *testing.B) {
	m := npb.MakeCGMatrix(400, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := npb.RunCGMPI(m, 10, 1, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelFTMPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := npb.RunFTMPI(16, 8, 16, 1, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelMGMPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := npb.RunMGMPI(16, 1, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelBTMPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := npb.RunBTMPI(10, 1, 2); err != nil {
			b.Fatal(err)
		}
	}
}
