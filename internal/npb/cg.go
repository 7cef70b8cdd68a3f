package npb

import (
	"fmt"
	"math"

	"maia/internal/simomp"
)

// CG — the conjugate-gradient kernel: estimate the largest eigenvalue
// shift of a sparse symmetric positive-definite matrix with inverse power
// iteration, using 25 unpreconditioned CG steps per outer iteration. The
// sparse matrix-vector product's indirect addressing is the paper's
// canonical gather/scatter workload (Section 6.8.1).

// SparseMatrix is a square CSR matrix.
type SparseMatrix struct {
	N      int
	RowPtr []int32
	Col    []int32
	Val    []float64
}

// NNZ returns the stored nonzero count.
func (m *SparseMatrix) NNZ() int { return len(m.Val) }

// MakeCGMatrix builds the benchmark's sparse SPD matrix: nzRow random
// off-diagonal positions per row (symmetrized by construction of the
// product pattern in the reference; here by averaging), made strictly
// diagonally dominant so CG is guaranteed to converge.
func MakeCGMatrix(n, nzRow int) *SparseMatrix {
	seed := DefaultSeed
	type entry struct {
		col int32
		val float64
	}
	rows := make([][]entry, n)
	for i := 0; i < n; i++ {
		for k := 0; k < nzRow-1; k++ {
			j := int(Randlc(&seed, MultA) * float64(n))
			if j >= n {
				j = n - 1
			}
			if j == i {
				continue
			}
			v := Randlc(&seed, MultA) - 0.5
			rows[i] = append(rows[i], entry{col: int32(j), val: v})
			rows[j] = append(rows[j], entry{col: int32(i), val: v})
		}
	}
	m := &SparseMatrix{N: n, RowPtr: make([]int32, n+1)}
	for i, r := range rows {
		// Diagonal dominance: |a_ii| > sum |a_ij|.
		sum := 0.0
		for _, e := range r {
			sum += math.Abs(e.val)
		}
		r = append(r, entry{col: int32(i), val: sum + 1.0})
		// Insertion sort by column keeps access patterns reproducible.
		for a := 1; a < len(r); a++ {
			for b := a; b > 0 && r[b].col < r[b-1].col; b-- {
				r[b], r[b-1] = r[b-1], r[b]
			}
		}
		for _, e := range r {
			m.Col = append(m.Col, e.col)
			m.Val = append(m.Val, e.val)
		}
		m.RowPtr[i+1] = int32(len(m.Col))
	}
	return m
}

// SpMV computes y = A*x, work-shared across the team by rows. Rows write
// disjoint outputs, so parallel results equal serial results exactly.
func SpMV(m *SparseMatrix, x, y []float64, team *simomp.Team) {
	body := func(i int) { y[i] = spmvRow(m, x, i) }
	if team == nil {
		for i := 0; i < m.N; i++ {
			body(i)
		}
		return
	}
	team.ParallelFor(m.N, simomp.ForOpts{Sched: simomp.Static}, body)
}

// spmvRow returns row i of A*x.
func spmvRow(m *SparseMatrix, x []float64, i int) float64 {
	sum := 0.0
	for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
		sum += m.Val[k] * x[m.Col[k]]
	}
	return sum
}

func dot(a, b []float64, team *simomp.Team) float64 {
	if team == nil {
		s := 0.0
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	s, _ := team.ForReduceSum(len(a), simomp.ForOpts{Sched: simomp.Static},
		func(i int) float64 { return a[i] * b[i] })
	return s
}

// cgOps are the two operations a CG decomposition supplies; the inner
// CG loop and the inverse power iteration are otherwise the same for
// every decomposition. The shared-memory kernel reduces over its team
// and multiplies with SpMV; an MPI rank holds its row block of each
// vector, adds its block sums with AllreduceSum and allgathers p before
// multiplying its rows.
type cgOps struct {
	dot    func(a, b []float64) float64
	matvec func(p, q []float64) // q = A p
}

// teamCGOps are the shared-memory kernel's operations: serial when team
// is nil.
func teamCGOps(m *SparseMatrix, team *simomp.Team) cgOps {
	return cgOps{
		dot:    func(a, b []float64) float64 { return dot(a, b, team) },
		matvec: func(p, q []float64) { SpMV(m, p, q, team) },
	}
}

// cgSolve runs `steps` unpreconditioned CG iterations for A z = x,
// starting from z = 0, and returns ||r|| at exit.
func cgSolve(x, z []float64, steps int, op cgOps) float64 {
	n := len(x)
	r := make([]float64, n)
	p := make([]float64, n)
	q := make([]float64, n)
	for i := range z {
		z[i] = 0
		r[i] = x[i]
		p[i] = x[i]
	}
	rho := op.dot(r, r)
	for it := 0; it < steps; it++ {
		op.matvec(p, q)
		alpha := rho / op.dot(p, q)
		for i := 0; i < n; i++ {
			z[i] += alpha * p[i]
			r[i] -= alpha * q[i]
		}
		rho0 := rho
		rho = op.dot(r, r)
		beta := rho / rho0
		for i := 0; i < n; i++ {
			p[i] = r[i] + beta*p[i]
		}
	}
	return math.Sqrt(rho)
}

// CGResult is the benchmark's verification state.
type CGResult struct {
	Zeta        float64   // the eigenvalue-shift estimate the suite verifies
	Residual    float64   // final inner-CG residual
	ZetaHistory []float64 // zeta after each outer iteration
}

// RunCG runs the CG benchmark: outerIters inverse power iterations, each
// with 25 CG steps. team == nil runs serially.
func RunCG(m *SparseMatrix, shift float64, outerIters int, team *simomp.Team) (CGResult, error) {
	if outerIters < 1 {
		return CGResult{}, fmt.Errorf("npb: CG needs at least one iteration")
	}
	return cgPower(m.N, shift, outerIters, teamCGOps(m, team)), nil
}

// cgPower runs outerIters inverse power iterations on vectors of length
// n (the whole matrix order, or one rank's row block).
func cgPower(n int, shift float64, outerIters int, op cgOps) CGResult {
	x := make([]float64, n)
	z := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	var res CGResult
	for it := 0; it < outerIters; it++ {
		res.Residual = cgSolve(x, z, 25, op)
		res.Zeta = shift + 1/op.dot(x, z)
		res.ZetaHistory = append(res.ZetaHistory, res.Zeta)
		norm := math.Sqrt(op.dot(z, z))
		for i := range x {
			x[i] = z[i] / norm
		}
	}
	return res
}
