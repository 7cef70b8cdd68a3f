// Package npb reimplements the NAS Parallel Benchmarks 3.3 suite the
// paper evaluates (Section 3.6, Figures 19, 20, 24, 25): five kernels
// (EP, CG, MG, FT, IS) and three compact applications (BT, LU, SP).
//
// Each benchmark exists in three forms:
//
//   - a real, runnable Go kernel (verified by tests at the small classes)
//     that executes through the simomp/simmpi runtimes so data movement
//     and results are genuine;
//   - an analytic work profile (core.Workload) derived from the
//     algorithm's operation counts, used by the execution model to price
//     paper-scale runs (Class C) that would not fit in a test budget;
//   - OpenMP and MPI drivers that combine both with the runtime overhead
//     models to regenerate the paper's figures.
//
// Operation counts are modeled from the algorithms (documented per
// benchmark below), not taken from the NPB reference outputs, so
// absolute Gflop/s differ from official NPB numbers while ratios between
// machines — the paper's subject — are preserved.
package npb

import (
	"fmt"

	"maia/internal/core"
)

// Benchmark enumerates the NPB suite.
type Benchmark int

const (
	EP Benchmark = iota // embarrassingly parallel random-number kernel
	CG                  // conjugate gradient, sparse matrix, irregular access
	MG                  // multigrid V-cycle on a 3D Poisson problem
	FT                  // 3D FFT-based spectral solver
	IS                  // integer bucket sort
	BT                  // block-tridiagonal ADI solver (5x5 blocks)
	LU                  // SSOR solver with wavefront dependencies
	SP                  // scalar-pentadiagonal ADI solver
)

// String implements fmt.Stringer.
func (b Benchmark) String() string {
	switch b {
	case EP:
		return "EP"
	case CG:
		return "CG"
	case MG:
		return "MG"
	case FT:
		return "FT"
	case IS:
		return "IS"
	case BT:
		return "BT"
	case LU:
		return "LU"
	case SP:
		return "SP"
	default:
		return fmt.Sprintf("Benchmark(%d)", int(b))
	}
}

// Fig19Benchmarks lists the six benchmarks shown in the paper's OpenMP
// figure (Figure 19).
func Fig19Benchmarks() []Benchmark {
	return []Benchmark{BT, CG, FT, LU, MG, SP}
}

// Class is an NPB problem class.
type Class byte

// The standard NPB classes, smallest to largest. Class C is what the
// paper runs.
const (
	ClassS Class = 'S'
	ClassW Class = 'W'
	ClassA Class = 'A'
	ClassB Class = 'B'
	ClassC Class = 'C'
)

// String implements fmt.Stringer.
func (c Class) String() string { return string(c) }

// Size describes one benchmark instance.
type Size struct {
	Bench Benchmark
	Class Class

	// Grid is the problem grid for the grid-based benchmarks
	// (MG, FT, BT, LU, SP); unused entries are 1.
	Grid [3]int
	// N is the scalar problem size: CG matrix order, IS key count,
	// EP pair count.
	N int64
	// Iters is the benchmark's time-step / outer-iteration count.
	Iters int

	// CG-specific: nonzeros per row and the eigenvalue shift.
	NonzerosPerRow int
	Shift          float64
	// IS-specific: maximum key value.
	MaxKey int64
}

// Points returns the total grid points (or N for non-grid benchmarks).
func (s Size) Points() int64 {
	if s.Grid[0] > 1 {
		return int64(s.Grid[0]) * int64(s.Grid[1]) * int64(s.Grid[2])
	}
	return s.N
}

// SizeOf returns the standard NPB 3.3 problem definition for a
// benchmark/class pair.
func SizeOf(b Benchmark, c Class) (Size, error) {
	s := Size{Bench: b, Class: c, Grid: [3]int{1, 1, 1}}
	bad := func() (Size, error) {
		return Size{}, fmt.Errorf("npb: no size table for %v class %v", b, c)
	}
	switch b {
	case EP:
		m := map[Class]int64{ClassS: 1 << 24, ClassW: 1 << 25, ClassA: 1 << 28, ClassB: 1 << 30, ClassC: 1 << 32}
		n, ok := m[c]
		if !ok {
			return bad()
		}
		s.N, s.Iters = n, 1
	case CG:
		type cgp struct {
			n, nz, it int
			shift     float64
		}
		m := map[Class]cgp{
			ClassS: {1400, 7, 15, 10}, ClassW: {7000, 8, 15, 12},
			ClassA: {14000, 11, 15, 20}, ClassB: {75000, 13, 75, 60},
			ClassC: {150000, 15, 75, 110},
		}
		p, ok := m[c]
		if !ok {
			return bad()
		}
		s.N, s.NonzerosPerRow, s.Iters, s.Shift = int64(p.n), p.nz, p.it, p.shift
	case MG:
		type mgp struct {
			n, it int
		}
		m := map[Class]mgp{
			ClassS: {32, 4}, ClassW: {128, 4}, ClassA: {256, 4},
			ClassB: {256, 20}, ClassC: {512, 20},
		}
		p, ok := m[c]
		if !ok {
			return bad()
		}
		s.Grid = [3]int{p.n, p.n, p.n}
		s.Iters = p.it
	case FT:
		type ftp struct {
			nx, ny, nz, it int
		}
		m := map[Class]ftp{
			ClassS: {64, 64, 64, 6}, ClassW: {128, 128, 32, 6},
			ClassA: {256, 256, 128, 6}, ClassB: {512, 256, 256, 20},
			ClassC: {512, 512, 512, 20},
		}
		p, ok := m[c]
		if !ok {
			return bad()
		}
		s.Grid = [3]int{p.nx, p.ny, p.nz}
		s.Iters = p.it
	case IS:
		type isp struct{ keysLog, maxLog int }
		m := map[Class]isp{
			ClassS: {16, 11}, ClassW: {20, 16}, ClassA: {23, 19},
			ClassB: {25, 21}, ClassC: {27, 23},
		}
		p, ok := m[c]
		if !ok {
			return bad()
		}
		s.N, s.MaxKey, s.Iters = 1<<p.keysLog, 1<<p.maxLog, 10
	case BT, SP, LU:
		type gp struct{ n, it int }
		var m map[Class]gp
		switch b {
		case BT:
			m = map[Class]gp{ClassS: {12, 60}, ClassW: {24, 200}, ClassA: {64, 200},
				ClassB: {102, 200}, ClassC: {162, 200}}
		case SP:
			m = map[Class]gp{ClassS: {12, 100}, ClassW: {36, 400}, ClassA: {64, 400},
				ClassB: {102, 400}, ClassC: {162, 400}}
		default: // LU
			m = map[Class]gp{ClassS: {12, 50}, ClassW: {33, 300}, ClassA: {64, 250},
				ClassB: {102, 250}, ClassC: {162, 250}}
		}
		p, ok := m[c]
		if !ok {
			return bad()
		}
		s.Grid = [3]int{p.n, p.n, p.n}
		s.Iters = p.it
	default:
		return Size{}, fmt.Errorf("npb: unknown benchmark %v", b)
	}
	return s, nil
}

// character holds the per-point-per-iteration operation model and the
// architectural character of each benchmark, the inputs the paper's
// analysis turns on: vectorizability, stride, cache reuse, and serial
// fraction.
type character struct {
	flopsPerPoint float64
	bytesPerPoint float64
	vec           float64
	stride        core.StrideClass
	reuse         float64
	parallel      float64
}

// characters: the rationale per benchmark —
//
//	EP: pure compute (2 logs, a sqrt, ~30 flops per pair), fully
//	    parallel, vectorizable except the acceptance branch;
//	CG: sparse matrix-vector with indirect addressing (the paper's
//	    gather/scatter case), low intensity, memory bound;
//	MG: 27-ish-point stencils streaming through the grid: the
//	    bandwidth-bound, unit-stride case that favors the Phi;
//	FT: batched 1D FFTs along each dimension: vectorizable but with
//	    strided/transpose passes and moderate reuse;
//	IS: integer counting sort: almost no FP, irregular scatter;
//	BT: 5x5 block ADI sweeps: flop-dense, blocked, high reuse — the
//	    best NPB on the Phi (Figure 19);
//	LU: SSOR wavefronts: limited parallelism and vectorization;
//	SP: scalar pentadiagonal ADI: like BT but less flop-dense.
var characters = map[Benchmark]character{
	EP: {flopsPerPoint: 30, bytesPerPoint: 0.5, vec: 0.85, stride: core.Unit, reuse: 0, parallel: 1.0},
	CG: {flopsPerPoint: 0, bytesPerPoint: 0, vec: 0.50, stride: core.GatherScatter, reuse: 0.35, parallel: 0.995},
	MG: {flopsPerPoint: 58, bytesPerPoint: 220, vec: 0.90, stride: core.Unit, reuse: 0.10, parallel: 0.999},
	FT: {flopsPerPoint: 0, bytesPerPoint: 0, vec: 0.85, stride: core.Strided, reuse: 0.40, parallel: 0.999},
	IS: {flopsPerPoint: 4, bytesPerPoint: 32, vec: 0.10, stride: core.GatherScatter, reuse: 0.20, parallel: 0.99},
	BT: {flopsPerPoint: 3200, bytesPerPoint: 2000, vec: 0.90, stride: core.Unit, reuse: 0.75, parallel: 0.999},
	LU: {flopsPerPoint: 1800, bytesPerPoint: 1600, vec: 0.70, stride: core.Unit, reuse: 0.70, parallel: 0.995},
	SP: {flopsPerPoint: 1000, bytesPerPoint: 1400, vec: 0.90, stride: core.Unit, reuse: 0.60, parallel: 0.999},
}

// Profile returns the analytic work profile of a benchmark instance: the
// total flops and memory traffic of all iterations, plus its
// architectural character.
func Profile(b Benchmark, c Class) (core.Workload, error) {
	s, err := SizeOf(b, c)
	if err != nil {
		return core.Workload{}, err
	}
	ch := characters[b]
	pts := float64(s.Points())
	it := float64(s.Iters)
	w := core.Workload{
		Name:             fmt.Sprintf("NPB %v.%v", b, c),
		VecFraction:      ch.vec,
		Stride:           ch.stride,
		Reuse:            ch.reuse,
		ParallelFraction: ch.parallel,
	}
	switch b {
	case CG:
		// Per outer iteration: 25 CG steps, each one sparse matvec
		// (2 flops per nonzero) plus ~12 flops per row of vector work.
		n := float64(s.N)
		nnz := n * float64(s.NonzerosPerRow)
		w.Flops = it * 25 * (2*nnz + 12*n)
		// Matvec traffic: 8B value + 4B index + 8B gathered operand per
		// nonzero, plus ~10 vector sweeps of 8B per row.
		w.Bytes = it * 25 * (20*nnz + 80*n)
	case FT:
		// Three dimension passes of radix-2 FFTs (5 N log2(dim) flops
		// each) plus the evolve step.
		n := pts
		logs := float64(log2(s.Grid[0]) + log2(s.Grid[1]) + log2(s.Grid[2]))
		w.Flops = it * (5*n*logs + 6*n)
		// Each pass streams the complex grid (16 B) in and out.
		w.Bytes = it * (3*2*16 + 34) * n
	default:
		w.Flops = it * pts * ch.flopsPerPoint
		w.Bytes = it * pts * ch.bytesPerPoint
	}
	return w, nil
}

// MemoryBytes estimates the resident footprint of a benchmark instance —
// what decides whether it fits on the Phi's 8 GB card. FT keeps five
// complex-sized arrays (the paper: FT class C "needs a minimum of 10 GB").
func MemoryBytes(b Benchmark, c Class) (int64, error) {
	s, err := SizeOf(b, c)
	if err != nil {
		return 0, err
	}
	pts := s.Points()
	switch b {
	case FT:
		return 5 * 16 * pts, nil
	case MG:
		// The V-cycle hierarchy adds ~1/7 over the fine grid, times
		// three arrays (u, v, r).
		return 3 * 8 * pts * 8 / 7, nil
	case CG:
		nnz := s.N * int64(s.NonzerosPerRow)
		return 20*nnz + 6*8*s.N, nil
	case IS:
		return 4*s.N + 8*s.MaxKey, nil
	case EP:
		return 1 << 20, nil
	default: // BT, LU, SP keep ~15 double fields per point plus work arrays
		return 15 * 8 * pts * 2, nil
	}
}

// log2 returns floor(log2(n)) for n >= 1.
func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
