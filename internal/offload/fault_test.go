package offload

import (
	"testing"

	"maia/internal/simfault"
	"maia/internal/simtrace"
	"maia/internal/vclock"
)

// lossyPlan drops every fourth-ish DMA with a heavy hand so short test
// runs are guaranteed to see retransmissions.
func lossyPlan() *simfault.Plan {
	return &simfault.Plan{Seed: 11, Fabrics: []simfault.FabricFault{{
		Fabric: "pcie:", Derate: 1.5, Delay: 4 * vclock.Microsecond, DropProb: 0.3,
	}}}
}

// A nil option list and an explicit empty plan price identically.
func TestOffloadEmptyPlanIdentical(t *testing.T) {
	run := func(opts ...EngineOption) (vclock.Time, Report) {
		e := NewEngine(DefaultConfig(), opts...)
		var total vclock.Time
		for i := 0; i < 5; i++ {
			tt, err := e.Offload(1<<20, 1<<19, 300*vclock.Microsecond, nil)
			if err != nil {
				t.Fatal(err)
			}
			total += tt
		}
		return total, e.Report()
	}
	cleanT, cleanR := run()
	emptyT, emptyR := run(WithFaultPlan(&simfault.Plan{}))
	if cleanT != emptyT || cleanR != emptyR {
		t.Fatalf("empty plan perturbed the engine: %v/%+v vs %v/%+v", emptyT, emptyR, cleanT, cleanR)
	}
}

// A lossy PCIe fabric slows synchronous offloads, charges retries to the
// ledger, and stays deterministic run to run.
func TestOffloadLossyDMARetries(t *testing.T) {
	run := func(opts ...EngineOption) (vclock.Time, Report) {
		e := NewEngine(DefaultConfig(), opts...)
		var total vclock.Time
		for i := 0; i < 20; i++ {
			tt, err := e.Offload(1<<20, 1<<19, 100*vclock.Microsecond, nil)
			if err != nil {
				t.Fatal(err)
			}
			total += tt
		}
		return total, e.Report()
	}
	cleanT, _ := run()
	lossyT, lossyR := run(WithFaultPlan(lossyPlan()))
	if lossyT <= cleanT {
		t.Fatalf("lossy DMA did not slow offloads: %v <= %v", lossyT, cleanT)
	}
	if lossyR.Retries == 0 {
		t.Fatal("30%% drop probability produced no retries over 20 invocations")
	}
	if lossyR.Fallbacks != 0 {
		t.Fatalf("no failure in the plan, yet %d fallbacks", lossyR.Fallbacks)
	}
	again, againR := run(WithFaultPlan(lossyPlan()))
	if again != lossyT || againR != lossyR {
		t.Fatalf("faulted offloads not deterministic: %v vs %v", again, lossyT)
	}
}

// A failed coprocessor diverts every invocation to the host: the run
// completes without error, the detection deadline is paid exactly once,
// and the fallback is visible in trace spans and counters.
func TestOffloadFailedPhiFallsBackToHost(t *testing.T) {
	tr := simtrace.New()
	e := NewEngine(DefaultConfig(),
		WithFaultPlan(simfault.Phi0Down()),
		WithHostFallback(func(k vclock.Time) vclock.Time { return 3 * k }),
		WithTracer(tr, "offload"))
	const kernel = 200 * vclock.Microsecond
	first, err := e.Offload(1<<20, 1<<19, kernel, nil)
	if err != nil {
		t.Fatalf("failed-target offload returned an error: %v", err)
	}
	second, err := e.Offload(1<<20, 1<<19, kernel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first <= second {
		t.Fatalf("detection deadline not front-loaded: first %v <= second %v", first, second)
	}
	if second != e.cfg.HostSetup+3*kernel {
		t.Fatalf("steady-state fallback invocation cost %v, want %v", second, e.cfg.HostSetup+3*kernel)
	}

	r := e.Report()
	if r.Fallbacks != 2 || r.Invocations != 2 {
		t.Fatalf("report %+v: want 2 invocations, both fallbacks", r)
	}
	if r.BytesIn != 0 || r.BytesOut != 0 || r.TransferTime != 0 || r.PhiTime != 0 {
		t.Fatalf("fallback charged PCIe/Phi components: %+v", r)
	}
	if r.FallbackTime != 6*kernel {
		t.Fatalf("fallback time %v, want %v", r.FallbackTime, 6*kernel)
	}
	if r.Retries == 0 {
		t.Fatal("dead-device detection charged no probe retries")
	}
	if total := r.Overhead() + r.KernelTime + r.FallbackTime; total != first+second {
		t.Fatalf("ledger total %v != observed %v", total, first+second)
	}

	var probes, fallbackKernels int
	for _, s := range tr.Spans() {
		switch {
		case s.Cat == simtrace.CatFault && s.Dur() > 0:
			probes++
		case s.Name == "kernel[host-fallback]":
			fallbackKernels++
		}
	}
	if probes != 1 {
		t.Fatalf("%d fault probe spans, want exactly 1 (paid once)", probes)
	}
	if fallbackKernels != 2 {
		t.Fatalf("%d host-fallback kernel spans, want 2", fallbackKernels)
	}
	var fallbacks int64
	for _, c := range tr.Counters() {
		if c.Key.Cat == simtrace.CatFault && c.Key.Name == "offload_fallbacks" {
			fallbacks = c.Value
		}
	}
	if fallbacks != 2 {
		t.Fatalf("offload_fallbacks counter %d, want 2", fallbacks)
	}
}

// A failure with At > 0 switches mid-run: invocations before the failure
// offload normally, invocations after it fall back.
func TestOffloadLateFailureSwitchesMidRun(t *testing.T) {
	plan := &simfault.Plan{Seed: 9, Failures: []simfault.Failure{
		{Device: simfault.Phi0Down().Failures[0].Device, At: 500 * vclock.Microsecond},
	}}
	e := NewEngine(DefaultConfig(), WithFaultPlan(plan))
	for i := 0; i < 6; i++ {
		if _, err := e.Offload(1<<20, 1<<19, 200*vclock.Microsecond, nil); err != nil {
			t.Fatal(err)
		}
	}
	r := e.Report()
	if r.Fallbacks == 0 || r.Fallbacks == r.Invocations {
		t.Fatalf("late failure should split the run: %d/%d fallbacks", r.Fallbacks, r.Invocations)
	}
	if r.Invocations != 6 {
		t.Fatalf("run did not complete: %d invocations", r.Invocations)
	}
}

// The pipelined schedule also completes when the target is dead, and the
// body still executes for every chunk.
func TestOffloadPipelinedFailover(t *testing.T) {
	e := NewEngine(DefaultConfig(),
		WithFaultPlan(simfault.Phi0Down()),
		WithHostFallback(func(k vclock.Time) vclock.Time { return 2 * k }))
	ran := 0
	total, err := e.OffloadPipelined(4, 1<<20, 1<<19, 100*vclock.Microsecond,
		func(chunk int) { ran++ })
	if err != nil {
		t.Fatalf("pipelined failover errored: %v", err)
	}
	if ran != 4 {
		t.Fatalf("body ran %d times, want 4", ran)
	}
	if total <= 0 {
		t.Fatal("failover run consumed no virtual time")
	}
	if r := e.Report(); r.Fallbacks != 4 {
		t.Fatalf("%d fallbacks, want 4", r.Fallbacks)
	}
}

// Pipelined offloads under a lossy fabric slow down, stay deterministic,
// and keep the ledger total consistent with per-component sums.
func TestOffloadPipelinedLossy(t *testing.T) {
	run := func(opts ...EngineOption) (vclock.Time, Report) {
		e := NewEngine(DefaultConfig(), opts...)
		total, err := e.OffloadPipelined(16, 1<<20, 1<<19, 100*vclock.Microsecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		return total, e.Report()
	}
	cleanT, _ := run()
	lossy1T, lossy1R := run(WithFaultPlan(lossyPlan()))
	lossy2T, lossy2R := run(WithFaultPlan(lossyPlan()))
	if lossy1T <= cleanT {
		t.Fatalf("lossy pipeline not slower: %v <= %v", lossy1T, cleanT)
	}
	if lossy1T != lossy2T || lossy1R != lossy2R {
		t.Fatal("lossy pipeline not deterministic")
	}
	if lossy1R.Retries == 0 {
		t.Fatal("lossy pipeline recorded no retries")
	}
}
