package npb

import (
	"fmt"

	"maia/internal/simomp"
)

// BT — the block-tridiagonal pseudo-application: an ADI scheme for a
// coupled 5-component diffusion-advection model problem. Each time step
// factors the implicit operator into three directional solves, and each
// directional solve is an independent 5x5 block-tridiagonal system per
// grid line — the flop-dense, cache-blocked, fully vectorizable pattern
// that makes BT the best-performing NPB kernel on the Phi (Figure 19).

// btOperator holds the constant line coefficients for one direction.
type btOperator struct {
	a, b, c mat5 // sub-, main-, super-diagonal blocks
}

// newBTOperator builds (I + tau*A_dim) for the model operator with
// diffusion number lambda and the fixed coupling matrix.
func newBTOperator(lambda float64) btOperator {
	m := couplingMatrix()
	return btOperator{
		a: ident5(-lambda).add(m.scale(-0.1 * lambda)),
		b: ident5(1 + 2*lambda).add(m.scale(0.05 * lambda)),
		c: ident5(-lambda).add(m.scale(0.1 * lambda)),
	}
}

// BTState is one BT run's mutable state.
type BTState struct {
	N      int
	U      *Field5
	F      *Field5 // steady forcing
	op     btOperator
	lambda float64
	tau    float64
}

// NewBT initializes the benchmark state for an n³ grid.
func NewBT(n int) (*BTState, error) {
	if n < 3 {
		return nil, fmt.Errorf("npb: BT grid %d too small", n)
	}
	st := &BTState{N: n, U: NewField5(n), F: NewField5(n)}
	st.U.FillRandom()
	st.F.FillRandom()
	st.tau = 0.5
	h := 1.0 / float64(n+1)
	st.lambda = st.tau / (h * h) * 0.01
	st.op = newBTOperator(st.lambda)
	return st, nil
}

// solveLine solves the block-tridiagonal system of grid line (p, q)
// along dim in place. buf (n cells x 5 components) and w (n blocks) are
// the caller's scratch.
func (st *BTState) solveLine(dim, p, q int, buf []float64, w []mat5) {
	base, stride := st.U.line(dim, p, q)
	for c := 0; c < st.N; c++ {
		copy(buf[c*ncomp:(c+1)*ncomp], st.U.V[base+c*stride:])
	}
	blockTriSolve(st.op.a, st.op.b, st.op.c, buf, w)
	for c := 0; c < st.N; c++ {
		copy(st.U.V[base+c*stride:base+c*stride+ncomp], buf[c*ncomp:])
	}
}

// Step advances one ADI time step: add forcing, then solve the three
// directional block-tridiagonal factors. Lines are independent, so each
// directional pass is work-shared across the team.
func (st *BTState) Step(team *simomp.Team) {
	n := st.N
	// Explicit forcing contribution.
	for i := range st.U.V {
		st.U.V[i] += st.tau * st.F.V[i]
	}
	for dim := 0; dim < 3; dim++ {
		runPencils(team, n*n, func(line int) {
			st.solveLine(dim, line/n, line%n, make([]float64, n*ncomp), make([]mat5, n))
		})
	}
}

// RunBT runs `steps` time steps and returns the RMS norms after each
// step. The ADI scheme is unconditionally stable, so norms stay bounded
// and the field approaches the forcing-balanced steady state.
func RunBT(n, steps int, team *simomp.Team) ([]float64, error) {
	st, err := NewBT(n)
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
