package npb

import (
	"fmt"
	"math"

	"maia/internal/core"
	"maia/internal/machine"
	"maia/internal/simmpi"
	"maia/internal/vclock"
)

// MPI driver (Figure 20): each benchmark's per-iteration communication
// pattern is a simmpi script (seq.go) priced for one representative
// iteration — iterations are identical, so the total is iters times the
// per-iteration makespan — with the rank's compute share charged from
// the core model.

// ErrOOM is returned when a benchmark does not fit in the target
// device's memory — the paper's FT-on-Phi case (Section 6.8.2) and the
// large-message Alltoall failures (Figure 14).
var ErrOOM = fmt.Errorf("npb: problem does not fit in device memory")

// ValidRankCount reports whether the benchmark accepts this many ranks:
// powers of two for CG, MG, FT, LU; perfect squares for BT and SP.
func ValidRankCount(b Benchmark, ranks int) bool {
	if ranks < 1 {
		return false
	}
	switch b {
	case BT, SP:
		r := int(math.Round(math.Sqrt(float64(ranks))))
		return r*r == ranks
	case CG, MG, FT, LU:
		return ranks&(ranks-1) == 0
	default:
		return true
	}
}

// MPIResult is one MPI-mode datapoint of Figure 20.
type MPIResult struct {
	Bench  Benchmark
	Class  Class
	Device machine.Device
	Ranks  int
	Time   vclock.Time
	Gflops float64
}

// MPIRun prices benchmark b at class c with `ranks` MPI ranks on dev.
// On the Phi, ranks beyond 59 oversubscribe cores with hardware threads
// (64 ranks ≈ 2 per core, 128 ≈ 3, 225+ ≈ 4).
func MPIRun(m core.Model, b Benchmark, c Class, dev machine.Device, ranks int, node *machine.Node) (MPIResult, error) {
	if !ValidRankCount(b, ranks) {
		return MPIResult{}, fmt.Errorf("npb: %v does not accept %d ranks", b, ranks)
	}
	w, err := Profile(b, c)
	if err != nil {
		return MPIResult{}, err
	}
	s, err := SizeOf(b, c)
	if err != nil {
		return MPIResult{}, err
	}
	mem, err := MemoryBytes(b, c)
	if err != nil {
		return MPIResult{}, err
	}
	var devMem int64
	var part machine.Partition
	var tpc int
	if dev.IsPhi() {
		devMem = int64(node.PhiProc.MemGB) << 30
		part = machine.PhiThreadsPartition(node, dev, ranks)
		tpc = part.ThreadsPerCore
	} else {
		devMem = int64(node.HostMemGB) << 30
		threadsPerCore := 1
		if ranks > node.HostCores() {
			threadsPerCore = 2
		}
		cores := ranks
		if cores > node.HostCores() {
			cores = node.HostCores()
		}
		part = machine.HostCoresPartition(node, cores, threadsPerCore)
		tpc = threadsPerCore
	}
	// MPI ranks add a fixed per-rank library footprint on top of the
	// problem's arrays.
	if mem+int64(ranks)*(25<<20) > devMem {
		return MPIResult{}, fmt.Errorf("%w: %v.%v needs %.1f GB + MPI overhead, device has %d GB",
			ErrOOM, b, c, float64(mem)/(1<<30), devMem>>30)
	}

	// Compute share per iteration, identical on every rank (the NPB
	// decompositions are balanced).
	computePerIter := m.Time(w, part) / vclock.Time(s.Iters)

	var cfg simmpi.Config
	if dev.IsPhi() {
		cfg.Ranks = simmpi.PhiPlacement(dev, ranks, tpc)
	} else {
		cfg.Ranks = simmpi.HostPlacement(ranks, tpc)
	}
	// One representative iteration, scaled by the iteration count:
	// iterations are identical.
	perIter, err := simmpi.SeqTime(cfg, iterationSeq(b, s, ranks, computePerIter), 1)
	if err != nil {
		return MPIResult{}, err
	}
	total := perIter * vclock.Time(s.Iters)

	return MPIResult{
		Bench: b, Class: c, Device: dev, Ranks: ranks,
		Time:   total,
		Gflops: w.Flops / total.Seconds() / 1e9,
	}, nil
}
