package npb

import (
	"fmt"

	"maia/internal/simomp"
)

// SP — the scalar-pentadiagonal pseudo-application: the same ADI model
// problem as BT, but the implicit factors are five INDEPENDENT scalar
// pentadiagonal systems per line (one per component) arising from a
// fourth-order-damped discretization, instead of coupled 5x5 blocks.
// Less arithmetic per point than BT, same sweep structure.

// SPState is one SP run's mutable state.
type SPState struct {
	N                 int
	U, F              *Field5
	e2, e1, d, f1, f2 float64
	tau               float64
}

// NewSP initializes the benchmark state for an n³ grid.
func NewSP(n int) (*SPState, error) {
	if n < 5 {
		return nil, fmt.Errorf("npb: SP grid %d too small", n)
	}
	st := &SPState{N: n, U: NewField5(n), F: NewField5(n), tau: 0.5}
	st.U.FillRandom()
	st.F.FillRandom()
	h := 1.0 / float64(n+1)
	lambda := st.tau / (h * h) * 0.01
	eps := lambda / 8 // fourth-order damping strength
	// (I + tau*A): pentadiagonal, diagonally dominant.
	st.e2, st.f2 = eps, eps
	st.e1, st.f1 = -lambda-4*eps, -lambda-4*eps
	st.d = 1 + 2*lambda + 6*eps
	return st, nil
}

// solveLine solves the five scalar pentadiagonal systems of grid line
// (p, q) along dim in place, one per component. buf (n values) and
// scratch are the caller's.
func (st *SPState) solveLine(dim, p, q int, buf []float64, scratch *pentaScratch) {
	base, stride := st.U.line(dim, p, q)
	for comp := 0; comp < ncomp; comp++ {
		for c := 0; c < st.N; c++ {
			buf[c] = st.U.V[base+c*stride+comp]
		}
		pentaSolve(st.e2, st.e1, st.d, st.f1, st.f2, buf, scratch)
		for c := 0; c < st.N; c++ {
			st.U.V[base+c*stride+comp] = buf[c]
		}
	}
}

// Step advances one ADI step: forcing plus three directional passes of
// per-component pentadiagonal solves.
func (st *SPState) Step(team *simomp.Team) {
	n := st.N
	for i := range st.U.V {
		st.U.V[i] += st.tau * st.F.V[i]
	}
	for dim := 0; dim < 3; dim++ {
		runPencils(team, n*n, func(line int) {
			st.solveLine(dim, line/n, line%n, make([]float64, n), newPentaScratch(n))
		})
	}
}

// RunSP runs `steps` time steps and returns the RMS norm after each.
func RunSP(n, steps int, team *simomp.Team) ([]float64, error) {
	st, err := NewSP(n)
	if err != nil {
		return nil, err
	}
	norms := make([]float64, 0, steps)
	for s := 0; s < steps; s++ {
		st.Step(team)
		norms = append(norms, st.U.L2())
	}
	return norms, nil
}
