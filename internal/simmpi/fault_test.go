package simmpi

import (
	"runtime"
	"testing"

	"maia/internal/machine"
	"maia/internal/simfault"
	"maia/internal/simtrace"
	"maia/internal/vclock"
)

// mixedLocs places half the ranks on the host and half on Phi0, so
// every Sendrecv pair in a ring crosses at least one PCIe hop.
func mixedLocs(n int) []Location {
	locs := make([]Location, n)
	for i := range locs {
		if i%2 == 0 {
			locs[i] = Location{Device: machine.Host, ThreadsPerCore: 1}
		} else {
			locs[i] = Location{Device: machine.Phi0, ThreadsPerCore: 1}
		}
	}
	return locs
}

// ringTime runs a small cross-device ring under a plan and returns the
// makespan.
func ringTime(t *testing.T, plan *simfault.Plan, tracer *simtrace.Tracer) vclock.Time {
	t.Helper()
	w, err := NewWorld(Config{Ranks: mixedLocs(8), SizeOnlyPayloads: true},
		WithFaultPlan(plan), WithTracer(tracer, "faultring"))
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 32<<10)
	if err := w.Run(func(r *Rank) {
		n := r.Size()
		for i := 0; i < 4; i++ {
			r.Sendrecv((r.ID()+1)%n, 0, payload, (r.ID()-1+n)%n, 0)
		}
		r.Compute(200 * vclock.Microsecond)
		r.AllreduceSum(1)
	}); err != nil {
		t.Fatal(err)
	}
	return w.MaxTime()
}

// A nil plan and an empty plan price identically: fault plumbing is
// invisible until a plan actually injects something.
func TestEmptyPlanIdenticalToNil(t *testing.T) {
	clean := ringTime(t, nil, nil)
	empty := ringTime(t, &simfault.Plan{}, nil)
	if clean != empty {
		t.Fatalf("empty plan changed makespan: %v vs %v", empty, clean)
	}
}

// The same fault plan prices identically on every run — virtual time
// under faults stays independent of the Go scheduler.
func TestFaultedRunDeterministic(t *testing.T) {
	plan := simfault.LossyPCIe()
	first := ringTime(t, plan, nil)
	for i := 0; i < 5; i++ {
		if got := ringTime(t, plan, nil); got != first {
			t.Fatalf("run %d: makespan %v, want %v", i, got, first)
		}
	}
}

// A lossy fabric strictly slows the run, and the retries show up in the
// trace as fault-category spans and counters.
func TestLossyFabricChargesRetries(t *testing.T) {
	clean := ringTime(t, nil, nil)
	tracer := simtrace.New()
	// A heavier drop rate than the catalog plan, so the short test run
	// is guaranteed to see retransmissions.
	plan := &simfault.Plan{Seed: 7, Fabrics: []simfault.FabricFault{{
		Fabric: "pcie:", Derate: 1.6, Delay: 5 * vclock.Microsecond, DropProb: 0.25,
	}}}
	lossy := ringTime(t, plan, tracer)
	if lossy <= clean {
		t.Fatalf("lossy fabric did not slow the ring: %v <= %v", lossy, clean)
	}
	var retries int64
	for _, c := range tracer.Counters() {
		if c.Key.Cat == simtrace.CatFault && c.Key.Name == "mpi_retries" {
			retries = c.Value
		}
	}
	if retries == 0 {
		t.Fatal("3% drop probability produced no retries over the run")
	}
	var faultSpans int
	for _, s := range tracer.Spans() {
		if s.Cat == simtrace.CatFault {
			faultSpans++
			if s.Dur() <= 0 {
				t.Fatalf("fault span %q has non-positive duration", s.Name)
			}
		}
	}
	if faultSpans == 0 {
		t.Fatal("no fault-category retry spans recorded")
	}
}

// Intra-device fabrics stay healthy under the PCIe-only plan: a pure
// host world prices identically with and without it.
func TestLossyPCIeSparesSharedMemory(t *testing.T) {
	run := func(plan *simfault.Plan) vclock.Time {
		w, err := NewWorld(Config{Ranks: HostPlacement(8, 1), SizeOnlyPayloads: true},
			WithFaultPlan(plan))
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 16<<10)
		if err := w.Run(func(r *Rank) {
			n := r.Size()
			r.Sendrecv((r.ID()+1)%n, 0, payload, (r.ID()-1+n)%n, 0)
		}); err != nil {
			t.Fatal(err)
		}
		return w.MaxTime()
	}
	if clean, faulted := run(nil), run(simfault.LossyPCIe()); clean != faulted {
		t.Fatalf("PCIe plan touched a shared-memory world: %v vs %v", faulted, clean)
	}
}

// Straggler compute derating applies per device and feeds the profiles
// (the signal the OVERFLOW rebalancer keys on).
func TestStragglerDeratesComputeProfiles(t *testing.T) {
	w, err := NewWorld(Config{Ranks: mixedLocs(4), SizeOnlyPayloads: true},
		WithFaultPlan(simfault.PhiStraggler()))
	if err != nil {
		t.Fatal(err)
	}
	const work = vclock.Millisecond
	if err := w.Run(func(r *Rank) {
		r.Compute(work)
	}); err != nil {
		t.Fatal(err)
	}
	for i, p := range w.Profiles() {
		want := work
		if w.cfg.Ranks[i].Device.IsPhi() {
			want = vclock.Time(float64(work) * 1.8)
		}
		if diff := p.Compute - want; diff < -1e-12 || diff > 1e-12 {
			t.Errorf("rank %d (%v) compute %v, want %v", i, w.cfg.Ranks[i].Device, p.Compute, want)
		}
	}
}

// Collectives ride the faulted point-to-point path: CollectiveTime on a
// cross-device world slows down under the lossy plan but stays
// deterministic.
func TestCollectiveUnderFaults(t *testing.T) {
	cfg := Config{Ranks: mixedLocs(8)}
	clean, err := CollectiveTime(cfg, AllgatherKind, 4<<10, 2)
	if err != nil {
		t.Fatal(err)
	}
	lossy1, err := CollectiveTime(cfg, AllgatherKind, 4<<10, 2, WithFaultPlan(simfault.LossyPCIe()))
	if err != nil {
		t.Fatal(err)
	}
	lossy2, err := CollectiveTime(cfg, AllgatherKind, 4<<10, 2, WithFaultPlan(simfault.LossyPCIe()))
	if err != nil {
		t.Fatal(err)
	}
	if lossy1 != lossy2 {
		t.Fatalf("faulted allgather not deterministic: %v vs %v", lossy1, lossy2)
	}
	if lossy1 <= clean {
		t.Fatalf("faulted allgather not slower: %v <= %v", lossy1, clean)
	}
}

// seqTotalAlloc runs an Alltoall and an Allgather of blockBytes blocks
// through RunSeq on a faulted two-node rack world of mixed host+Phi
// nodes (the shape a faulted ext-rack-* sweep point runs on the
// goroutine engine) and returns the bytes the run allocated.
func seqTotalAlloc(t *testing.T, blockBytes int) uint64 {
	t.Helper()
	nodeLocs := append(HostPlacement(2, 1), PhiPlacement(machine.Phi0, 2, 1)...)
	w, err := NewWorld(Config{
		Ranks:            ReplicateNodes(nodeLocs, 2),
		Fabric:           machine.NewRackFabric(2),
		SizeOnlyPayloads: true,
	}, WithFaultPlan(simfault.Degraded()))
	if err != nil {
		t.Fatal(err)
	}
	steps := []SeqStep{{Kind: AlltoallKind, Bytes: blockBytes}, {Kind: AllgatherKind, Bytes: blockBytes}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := w.RunSeq(steps, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSizeOnlyMemoryIndependentOfBytes pins the size-only transport's
// defining property: a message carries its length, not a buffer, so
// the host memory a run allocates does not grow with the modeled
// message size. Pricing 1 MB blocks must allocate about what 4 KB
// blocks do, not the tens of MB the blocks themselves would take. It
// reads process-wide MemStats, so it must not run in parallel.
func TestSizeOnlyMemoryIndependentOfBytes(t *testing.T) {
	const bound = 256 << 10
	seqTotalAlloc(t, 4<<10) // warm the one-time costs of the first run
	small, large := seqTotalAlloc(t, 4<<10), seqTotalAlloc(t, 1<<20)
	t.Logf("allocated %d bytes at 4 KB blocks, %d at 1 MB", small, large)
	if large > small+bound {
		t.Errorf("1 MB blocks allocated %d bytes, 4 KB blocks %d: the difference exceeds %d",
			large, small, bound)
	}
}

// allreduceTotalAlloc prices a size-only Allreduce of msgBytes on a
// mixed host+Phi world (the ext-fault-fabric shape: heterogeneous, so
// the replay refuses and every rank runs on the goroutine engine) and
// returns the bytes the pricing allocated.
func allreduceTotalAlloc(t *testing.T, ranks, msgBytes int) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := CollectiveTime(Config{Ranks: mixedLocs(ranks)}, AllreduceKind, msgBytes, 4); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSizeOnlyAllreduceAllocatesNoVectors pins that a size-only
// reduction moves lengths like every other collective: pricing 64 KB
// Allreduces must allocate what 8-byte ones do. A vector per rank per
// round (64 KB each, hundreds per run) would blow far past the slack,
// which only absorbs scheduling-dependent mailbox growth. Eight ranks
// take recursive doubling, six take Reduce-then-Bcast. It reads
// process-wide MemStats, so it must not run in parallel.
func TestSizeOnlyAllreduceAllocatesNoVectors(t *testing.T) {
	const slack = 32 << 10
	for _, ranks := range []int{8, 6} {
		allreduceTotalAlloc(t, ranks, 8) // warm the one-time costs of the first run
		small, large := allreduceTotalAlloc(t, ranks, 8), allreduceTotalAlloc(t, ranks, 64<<10)
		t.Logf("%d ranks: allocated %d bytes at 8 B, %d at 64 KB", ranks, small, large)
		if large > small+slack {
			t.Errorf("%d ranks: 64 KB Allreduces allocated %d bytes, 8-byte ones %d: the difference exceeds %d",
				ranks, large, small, slack)
		}
	}
}
