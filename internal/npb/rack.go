package npb

import (
	"fmt"
	"math"

	"maia/internal/core"
	"maia/internal/machine"
	"maia/internal/simmpi"
	"maia/internal/vclock"
)

// Rack-scale MPI driver: the NPB kernels strong-scaled across the
// hypercube fabric of the full system (Section 3 / Table 1), rather
// than within one node. Each node contributes its 16 host cores; the
// benchmark's communication script runs on a two-level simmpi world
// where intra-node messages keep the shared-memory cost model and
// inter-node messages are priced by hop count over FDR InfiniBand.
//
// Only CG, MG and FT rack-scale here: they are the paper's
// communication-bound kernels (latency-, neighbor- and
// bisection-dominated respectively), and their per-iteration patterns
// map onto the script steps the hierarchical replay prices in closed
// form — which is what makes a 128-node, 2048-rank sweep simulable in
// milliseconds.

// RackResult is one datapoint of a rack-scale NPB sweep.
type RackResult struct {
	Bench   Benchmark
	Class   Class
	Nodes   int
	PerNode int
	Ranks   int
	Time    vclock.Time
	Gflops  float64
}

// RackSupported reports whether b has a rack-scale script.
func RackSupported(b Benchmark) bool {
	switch b {
	case CG, MG, FT:
		return true
	default:
		return false
	}
}

// RackRun prices benchmark b at class c strong-scaled over a rack of
// `nodes` identical host nodes with perNode MPI ranks each. The
// problem's arrays spread across node memories; the per-rank library
// footprint stays per rank. opts (tracer, fault plan) thread into the
// simmpi world — faulted worlds refuse the replay and run the
// goroutine engine, so keep faulted node counts modest.
func RackRun(m core.Model, b Benchmark, c Class, nodes, perNode int, node *machine.Node, opts ...simmpi.Option) (RackResult, error) {
	if !RackSupported(b) {
		return RackResult{}, fmt.Errorf("npb: %v has no rack-scale script", b)
	}
	if nodes < 2 {
		return RackResult{}, fmt.Errorf("npb: rack run needs at least 2 nodes, got %d", nodes)
	}
	if perNode < 1 || perNode > node.HostCores() {
		return RackResult{}, fmt.Errorf("npb: %d ranks per node outside 1..%d host cores", perNode, node.HostCores())
	}
	ranks := nodes * perNode
	w, s, mem, err := pricingInputs(b, c, ranks)
	if err != nil {
		return RackResult{}, err
	}
	// Per-node share of the arrays plus the fixed per-rank MPI footprint
	// must fit one node's host memory.
	if mem/int64(nodes)+int64(perNode)*(25<<20) > int64(node.HostMemGB)<<30 {
		return RackResult{}, fmt.Errorf("%w: %v.%v needs %.1f GB/node + MPI overhead, node has %d GB",
			ErrOOM, b, c, float64(mem)/float64(nodes)/(1<<30), node.HostMemGB)
	}

	// Strong scaling: the whole workload's compute divides evenly across
	// nodes (each running its perNode ranks on host cores), and within a
	// node the per-iteration share is what one balanced rank charges.
	part := machine.HostCoresPartition(node, perNode, 1)
	computePerIter := m.Time(w, part) / vclock.Time(s.Iters) / vclock.Time(nodes)

	steps := rackScript(b, s, ranks, computePerIter)
	cfg := simmpi.Config{
		Ranks:  simmpi.RackPlacement(machine.Host, nodes, perNode, 1),
		Fabric: machine.NewRackFabric(nodes),
	}
	// One representative iteration, scaled by the iteration count —
	// iterations are identical, as in MPIRun.
	perIter, err := simmpi.SeqTime(cfg, steps, 1, opts...)
	if err != nil {
		return RackResult{}, err
	}
	total := perIter * vclock.Time(s.Iters)
	return RackResult{
		Bench: b, Class: c, Nodes: nodes, PerNode: perNode, Ranks: ranks,
		Time:   total,
		Gflops: w.Flops / total.Seconds() / 1e9,
	}, nil
}

// rackScript builds one iteration of b's communication pattern as a
// script, with iterationSeq's message sizes at the rank count of the
// whole rack. CG's script is iterationSeq's. MG's face exchanges are
// id^1 pairs here, not ring shifts: the rack replay prices those, while
// a ring's node-boundary hops are not index-symmetric. FT's adds the
// checksum Allreduce.
func rackScript(b Benchmark, s Size, ranks int, compute vclock.Time) []simmpi.SeqStep {
	n := ranks
	pts := float64(s.Points())
	switch b {
	case CG:
		// A rack always has n > 1 ranks, where the CG script has its
		// transpose-partner exchange.
		return iterationSeq(b, s, n, compute)
	case MG:
		// Halo exchanges on every level: 3 face pairs, shrinking with
		// level, then the residual-norm allreduce.
		levels := log2(s.Grid[0]) - 1
		sub := pts / float64(n)
		face := math.Pow(sub, 2.0/3.0)
		steps := make([]simmpi.SeqStep, 0, 3*levels+1)
		for l := 0; l < levels; l++ {
			faceBytes := int(8 * face / float64(int(1)<<(2*l)))
			if faceBytes < 8 {
				faceBytes = 8
			}
			steps = append(steps,
				simmpi.SeqStep{Compute: compute / vclock.Time(levels), Kind: simmpi.PairKind, Bytes: faceBytes},
				simmpi.SeqStep{Kind: simmpi.PairKind, Bytes: faceBytes},
				simmpi.SeqStep{Kind: simmpi.PairKind, Bytes: faceBytes},
			)
		}
		return append(steps, simmpi.SeqStep{Kind: simmpi.AllreduceKind, Bytes: 8})
	case FT:
		// The 3D FFT transpose: one all-to-all of the full grid per
		// iteration, then the checksum allreduce.
		block := int(16 * pts / float64(n) / float64(n))
		if block < 16 {
			block = 16
		}
		return []simmpi.SeqStep{
			{Compute: compute, Kind: simmpi.AlltoallKind, Bytes: block},
			{Kind: simmpi.AllreduceKind, Bytes: 32},
		}
	default:
		panic(fmt.Sprintf("npb: no rack script for %v", b))
	}
}
