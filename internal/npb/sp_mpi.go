package npb

import (
	"fmt"

	"maia/internal/simmpi"
)

// Distributed SP: the ADI scheme with the i-direction scalar
// pentadiagonal solves pipelined through slab ranks. The banded forward
// elimination carries a two-row state (the eliminated diagonal, first
// superdiagonal and right-hand side of the previous two rows); back
// substitution carries the two leading solution values. With this, all
// eight NPB kernels have genuine distributed-memory implementations.

// spLineState is the forward-elimination carry of one line: rows i-2 and
// i-1 of (dw, f1w, r).
type spLineState struct {
	dw2, f1w2, r2 float64 // row i-2
	dw1, f1w1, r1 float64 // row i-1
}

// RunSPMPI runs the SP benchmark with `ranks` slab ranks. The norm
// history matches the serial RunSP to reduction rounding.
func RunSPMPI(n, steps, ranks int) ([]float64, error) {
	sp, err := NewSP(n)
	if err != nil {
		return nil, err
	}
	if steps < 1 || ranks < 1 || ranks > n/2 {
		return nil, fmt.Errorf("npb: SP needs steps >= 1 and 1..%d ranks", n/2)
	}
	return runADIMPI(n, steps, ranks, func() adiRank {
		st := *sp
		st.U = sp.U.Clone()
		buf, scratch := make([]float64, n), newPentaScratch(n)
		return adiRank{st.U, st.F, st.tau,
			func(r *simmpi.Rank, lo, hi int) { spSolveILines(r, &st, lo, hi, ranks) },
			func(dim, p, q int) { st.solveLine(dim, p, q, buf, scratch) }}
	})
}

// spSolveILines runs the i-direction pentadiagonal solves as a pipeline.
// It reproduces pentaSolve's arithmetic row for row.
func spSolveILines(r *simmpi.Rank, st *SPState, lo, hi, ranks int) {
	n := st.N
	lines := n * n * ncomp // one system per (j,k,component)
	mine := hi - lo
	const stLen = 6 // spLineState floats
	e2, e1, d, f1, f2 := st.e2, st.e1, st.d, st.f1, st.f2

	// Stored eliminated coefficients for my rows, needed again in back
	// substitution: dw and f1w per (line, plane).
	dw := make([]float64, lines*mine)
	f1w := make([]float64, lines*mine)

	addr := func(line, i int) int {
		// line = ((j*n)+k)*ncomp + comp
		comp := line % ncomp
		k := (line / ncomp) % n
		j := line / (ncomp * n)
		return st.U.Idx(i, j, k) + comp
	}

	// Forward elimination.
	var incoming []float64
	if r.ID() > 0 {
		incoming = simmpi.DecodeFloat64s(r.Recv(r.ID()-1, 40))
	}
	outgoing := make([]float64, lines*stLen)
	for line := 0; line < lines; line++ {
		var s spLineState
		if r.ID() > 0 {
			o := line * stLen
			s = spLineState{incoming[o], incoming[o+1], incoming[o+2],
				incoming[o+3], incoming[o+4], incoming[o+5]}
		}
		for i := lo; i < hi; i++ {
			ui := addr(line, i)
			rI := st.U.V[ui]
			dwI, f1wI := d, f1
			// e2 elimination against row i-2 (absent for global rows 0,1).
			if i >= 2 {
				m := e2 / s.dw2
				// This modifies the row's e1 coefficient before its own
				// elimination.
				e1I := e1 - m*s.f1w2
				dwI -= m * f2
				rI -= m * s.r2
				// e1 elimination against row i-1.
				m1 := e1I / s.dw1
				dwI -= m1 * s.f1w1
				f1wI -= m1 * f2
				rI -= m1 * s.r1
			} else if i == 1 {
				m1 := e1 / s.dw1
				dwI -= m1 * s.f1w1
				f1wI -= m1 * f2
				rI -= m1 * s.r1
			}
			st.U.V[ui] = rI
			idx := line*mine + (i - lo)
			dw[idx], f1w[idx] = dwI, f1wI
			// Shift the carry.
			s.dw2, s.f1w2, s.r2 = s.dw1, s.f1w1, s.r1
			s.dw1, s.f1w1, s.r1 = dwI, f1wI, rI
		}
		o := line * stLen
		outgoing[o], outgoing[o+1], outgoing[o+2] = s.dw2, s.f1w2, s.r2
		outgoing[o+3], outgoing[o+4], outgoing[o+5] = s.dw1, s.f1w1, s.r1
	}
	if r.ID() < ranks-1 {
		r.Send(r.ID()+1, 40, simmpi.AppendFloat64s(nil, outgoing))
	}

	// Back substitution: u_i = (r_i - f1w_i*u_{i+1} - f2*u_{i+2}) / dw_i.
	var uNext []float64
	if r.ID() < ranks-1 {
		uNext = simmpi.DecodeFloat64s(r.Recv(r.ID()+1, 41))
	}
	uOut := make([]float64, lines*2)
	for line := 0; line < lines; line++ {
		var u1, u2 float64 // u_{i+1}, u_{i+2}
		have := 0
		if r.ID() < ranks-1 {
			u1, u2 = uNext[line*2], uNext[line*2+1]
			have = 2
		}
		for i := hi - 1; i >= lo; i-- {
			ui := addr(line, i)
			idx := line*mine + (i - lo)
			v := st.U.V[ui]
			if have >= 1 {
				v -= f1w[idx] * u1
			}
			if have >= 2 {
				v -= f2 * u2
			}
			v /= dw[idx]
			st.U.V[ui] = v
			u2 = u1
			u1 = v
			if have < 2 {
				have++
			}
		}
		uOut[line*2], uOut[line*2+1] = u1, u2
	}
	if r.ID() > 0 {
		r.Send(r.ID()-1, 41, simmpi.AppendFloat64s(nil, uOut))
	}
}
