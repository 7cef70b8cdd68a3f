// Package core is the execution model at the center of this reproduction:
// it predicts how long a characterized computation takes on a given
// partition of the Maia node, capturing every architectural effect the
// paper identifies as decisive for Xeon Phi performance:
//
//   - 512-bit SIMD: peak needs highly vectorized, unit-stride code; the
//     Phi's gather/scatter vector path is barely better than scalar
//     (Section 6.8.1: vectorizing CG's sparse BLAS bought only 10%);
//   - in-order cores: one thread per core cannot issue back-to-back
//     instructions, so hardware threads are required to fill the
//     pipeline (2–4 threads per core, with 3 often the sweet spot);
//   - memory bandwidth: the roofline between compute rate and sustained
//     memory bandwidth (STREAM model from package memsim), which is why
//     bandwidth-bound MG is the one NPB kernel that wins on the Phi while
//     bandwidth-starved OVERFLOW loses;
//   - the OS core: placements that touch the 60th core suffer MPSS
//     interference (Figure 24);
//   - Amdahl: serial regions run on one slow in-order core.
//
// Drivers (NPB, the CFD mini-apps, offload experiments) describe phases
// as Workloads; the model prices them; the OpenMP/MPI/offload runtimes
// add their own overheads on top.
package core

import "fmt"

// StrideClass is the dominant memory-access pattern of a workload.
type StrideClass int

const (
	// Unit is stride-1 access: full vector and prefetch efficiency.
	Unit StrideClass = iota
	// Strided is constant non-unit stride: partial vector efficiency.
	Strided
	// GatherScatter is indirect addressing (e.g. sparse matrix-vector):
	// nearly scalar on the Phi, merely slowed on the host.
	GatherScatter
)

// String implements fmt.Stringer.
func (s StrideClass) String() string {
	switch s {
	case Unit:
		return "unit"
	case Strided:
		return "strided"
	case GatherScatter:
		return "gather-scatter"
	default:
		return fmt.Sprintf("StrideClass(%d)", int(s))
	}
}

// Workload characterizes one computational phase.
type Workload struct {
	Name string
	// Flops is the double-precision operation count.
	Flops float64
	// Bytes is the main-memory traffic (read + write).
	Bytes float64
	// VecFraction is the fraction of the computation the compiler can
	// vectorize, in [0, 1].
	VecFraction float64
	// Stride classifies the memory access pattern.
	Stride StrideClass
	// Reuse is the fraction of Bytes that a sufficiently large cache
	// could absorb (temporal reuse potential), in [0, 1]. Streaming
	// kernels are near 0; blocked solvers near 0.8.
	Reuse float64
	// ParallelFraction is the Amdahl parallelizable fraction, in [0, 1].
	ParallelFraction float64
}

// Validate reports whether the workload's fields are in range.
func (w Workload) Validate() error {
	if w.Flops < 0 || w.Bytes < 0 {
		return fmt.Errorf("core: %s: negative flops or bytes", w.Name)
	}
	if w.VecFraction < 0 || w.VecFraction > 1 {
		return fmt.Errorf("core: %s: VecFraction %v out of [0,1]", w.Name, w.VecFraction)
	}
	if w.Reuse < 0 || w.Reuse > 1 {
		return fmt.Errorf("core: %s: Reuse %v out of [0,1]", w.Name, w.Reuse)
	}
	if w.ParallelFraction < 0 || w.ParallelFraction > 1 {
		return fmt.Errorf("core: %s: ParallelFraction %v out of [0,1]", w.Name, w.ParallelFraction)
	}
	return nil
}

// Scale returns a copy with flops and bytes multiplied by f — convenient
// for expressing per-iteration profiles.
func (w Workload) Scale(f float64) Workload {
	w.Flops *= f
	w.Bytes *= f
	return w
}
