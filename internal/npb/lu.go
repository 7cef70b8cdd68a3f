package npb

import (
	"fmt"
	"math"

	"maia/internal/simomp"
)

// LU — the SSOR pseudo-application: symmetric successive over-relaxation
// sweeps over the steady 7-point, 5x5-block system A u = f. The forward
// sweep's lower-triangular dependence serializes cells along i+j+k
// hyperplanes, so parallelism is wavefront-shaped — the reason LU's
// parallel efficiency and vectorization trail BT/SP in the paper.

// LUState is one LU run's mutable state.
type LUState struct {
	N       int
	U, F    *Field5
	diag    mat5
	diagInv mat5
	off     mat5 // neighbor coupling block (same for all six neighbors)
	omega   float64
}

// NewLU initializes the benchmark state.
func NewLU(n int) (*LUState, error) {
	if n < 3 {
		return nil, fmt.Errorf("npb: LU grid %d too small", n)
	}
	st := &LUState{N: n, U: NewField5(n), F: NewField5(n), omega: 1.2}
	st.F.FillRandom()
	m := couplingMatrix()
	// Diagonally dominant block Laplacian: 6 neighbors of weight ~1.
	st.off = ident5(-1).add(m.scale(-0.1))
	st.diag = ident5(6.5).add(m.scale(0.3))
	st.diagInv = st.diag.invert()
	return st, nil
}

// sweep runs one SSOR pass in the given order (+1 forward, -1 backward).
// Cells on the same i+j+k hyperplane are independent, so each hyperplane
// is work-shared across the team, like the pipelined wavefronts of the
// reference code.
func (st *LUState) sweep(team *simomp.Team, dir int) {
	n := st.N
	planes := 3*(n-1) + 1
	for pi := 0; pi < planes; pi++ {
		plane := pi
		if dir < 0 {
			plane = planes - 1 - pi
		}
		cells := hyperplaneCells(n, plane)
		if team == nil {
			for _, c := range cells {
				luRelaxCell(st, c[0], c[1], c[2])
			}
		} else {
			team.ParallelFor(len(cells), simomp.ForOpts{Sched: simomp.Static}, func(x int) {
				c := cells[x]
				luRelaxCell(st, c[0], c[1], c[2])
			})
		}
	}
}

// hyperplaneCells lists the cells with i+j+k == plane.
func hyperplaneCells(n, plane int) [][3]int {
	var cells [][3]int
	for i := 0; i < n; i++ {
		if plane-i < 0 {
			break
		}
		for j := 0; j < n; j++ {
			k := plane - i - j
			if k < 0 {
				break
			}
			if k < n {
				cells = append(cells, [3]int{i, j, k})
			}
		}
	}
	return cells
}

// ResidualNorm returns ||f - A u|| (RMS).
func (st *LUState) ResidualNorm() float64 {
	n := st.N
	return math.Sqrt(luResidualPlanes(st, 0, n) / float64(n*n*n*ncomp))
}

// luRelaxCell applies one SSOR update to cell (i,j,k). It carries its
// own scratch, so the cells of one hyperplane relax concurrently.
func luRelaxCell(st *LUState, i, j, k int) {
	n := st.N
	var rhs, tmp [ncomp]float64
	off := st.U.Idx(i, j, k)
	copy(rhs[:], st.F.V[off:off+ncomp])
	for _, d := range [6][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}} {
		ni, nj, nk := i+d[0], j+d[1], k+d[2]
		if ni < 0 || nj < 0 || nk < 0 || ni >= n || nj >= n || nk >= n {
			continue
		}
		noff := st.U.Idx(ni, nj, nk)
		st.off.matvec(st.U.V[noff:noff+ncomp], tmp[:])
		for c := 0; c < ncomp; c++ {
			rhs[c] -= tmp[c]
		}
	}
	st.diagInv.matvec(rhs[:], tmp[:])
	for c := 0; c < ncomp; c++ {
		st.U.V[off+c] += st.omega * (tmp[c] - st.U.V[off+c])
	}
}

// luResidualPlanes sums the squared residual over planes [lo, hi).
func luResidualPlanes(st *LUState, lo, hi int) float64 {
	n := st.N
	var tmp [ncomp]float64
	s := 0.0
	for i := lo; i < hi; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				off := st.U.Idx(i, j, k)
				var r [ncomp]float64
				st.diag.matvec(st.U.V[off:off+ncomp], tmp[:])
				for c := 0; c < ncomp; c++ {
					r[c] = st.F.V[off+c] - tmp[c]
				}
				for _, d := range [6][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}} {
					ni, nj, nk := i+d[0], j+d[1], k+d[2]
					if ni < 0 || nj < 0 || nk < 0 || ni >= n || nj >= n || nk >= n {
						continue
					}
					noff := st.U.Idx(ni, nj, nk)
					st.off.matvec(st.U.V[noff:noff+ncomp], tmp[:])
					for c := 0; c < ncomp; c++ {
						r[c] -= tmp[c]
					}
				}
				for c := 0; c < ncomp; c++ {
					s += r[c] * r[c]
				}
			}
		}
	}
	return s
}

// Step runs one SSOR iteration (forward + backward sweep).
func (st *LUState) Step(team *simomp.Team) {
	st.sweep(team, +1)
	st.sweep(team, -1)
}

// RunLU runs `steps` SSOR iterations and returns the residual norm after
// each — a converging sequence.
func RunLU(n, steps int, team *simomp.Team) ([]float64, error) {
	st, err := NewLU(n)
	if err != nil {
		return nil, err
	}
	res := make([]float64, 0, steps)
	for s := 0; s < steps; s++ {
		st.Step(team)
		res = append(res, st.ResidualNorm())
	}
	return res, nil
}
