package npb

import (
	"fmt"
	"math"

	"maia/internal/simmpi"
)

// Distributed LU and BT: the two pseudo-applications whose parallel
// structure the paper's analysis leans on.
//
//   - LU-MPI: SSOR with the grid slab-decomposed along i and the sweeps
//     PIPELINED rank to rank — the production code's wavefront. Updates
//     read new values of lower neighbours and old values of upper ones,
//     so any topological order (serial hyperplanes, distributed
//     plane-pipeline) relaxes the field bit-identically.
//   - BT-MPI: the ADI scheme with j- and k-line solves local to each
//     slab and the i-line block-tridiagonal solves PIPELINED through the
//     ranks (distributed Thomas: forward elimination flows right,
//     back-substitution flows left).
//   - EP-MPI: batches split across ranks, sums combined with Allreduce.
//
// Every norm is summed over the owned planes and combined with
// AllreduceSum, so histories match the serial kernels to reduction
// rounding: at 2 or more ranks they can differ in the last bits.

// RunLUMPI runs the LU benchmark with `ranks` slab ranks. The residual
// history matches the serial RunLU to reduction rounding.
func RunLUMPI(n, steps, ranks int) ([]float64, error) {
	lu, err := NewLU(n)
	if err != nil {
		return nil, err
	}
	if steps < 1 || ranks < 1 || ranks > n {
		return nil, fmt.Errorf("npb: LU needs steps >= 1 and 1..%d ranks", n)
	}
	res := make([]float64, steps)
	err = runRanks(ranks, func(r *simmpi.Rank) {
		st := *lu
		st.U = lu.U.Clone()
		id := r.ID()
		lo, hi := blockRange(n, ranks, id)
		plane := func(i int) []float64 { return st.U.V[st.U.Idx(i, 0, 0):st.U.Idx(i+1, 0, 0)] }
		send := func(to, tag, i int) { r.Send(to, tag, simmpi.AppendFloat64s(nil, plane(i))) }
		recv := func(from, tag, i int) { copy(plane(i), simmpi.DecodeFloat64s(r.Recv(from, tag))) }
		for step := 0; step < steps; step++ {
			// Forward sweep: wait for the updated plane lo-1, relax my
			// planes in order, pass plane hi-1 right.
			if id > 0 {
				recv(id-1, 20, lo-1)
			}
			for i := lo; i < hi; i++ {
				for j := 0; j < n; j++ {
					for k := 0; k < n; k++ {
						luRelaxCell(&st, i, j, k)
					}
				}
			}
			if id < ranks-1 {
				send(id+1, 20, hi-1)
			}
			// Backward sweep: mirror image.
			if id < ranks-1 {
				recv(id+1, 21, hi)
			}
			for i := hi - 1; i >= lo; i-- {
				for j := n - 1; j >= 0; j-- {
					for k := n - 1; k >= 0; k-- {
						luRelaxCell(&st, i, j, k)
					}
				}
			}
			if id > 0 {
				send(id-1, 21, lo)
			}
			// Residual over owned planes; neighbours' boundary planes
			// are needed once more for the stencil.
			if id > 0 {
				send(id-1, 22, lo)
			}
			if id < ranks-1 {
				recv(id+1, 22, hi)
				send(id+1, 23, hi-1)
			}
			if id > 0 {
				recv(id-1, 23, lo-1)
			}
			if tot := r.AllreduceSum(luResidualPlanes(&st, lo, hi)); id == 0 {
				res[step] = math.Sqrt(tot / float64(n*n*n*ncomp))
			}
		}
	})
	return res, err
}

// RunBTMPI runs the BT benchmark with `ranks` slab ranks: j/k ADI sweeps
// local, i-sweeps as a distributed block-Thomas pipeline. The norm
// history matches the serial RunBT to reduction rounding.
func RunBTMPI(n, steps, ranks int) ([]float64, error) {
	bt, err := NewBT(n)
	if err != nil {
		return nil, err
	}
	if steps < 1 || ranks < 1 || ranks > n {
		return nil, fmt.Errorf("npb: BT needs steps >= 1 and 1..%d ranks", n)
	}
	return runADIMPI(n, steps, ranks, func() adiRank {
		st := *bt
		st.U = bt.U.Clone()
		buf, w := make([]float64, n*ncomp), make([]mat5, n)
		return adiRank{st.U, st.F, st.tau,
			func(r *simmpi.Rank, lo, hi int) { btSolveILines(r, &st, lo, hi, ranks) },
			func(dim, p, q int) { st.solveLine(dim, p, q, buf, w) }}
	})
}

// adiRank is one rank's copy of a BT or SP state, as runADIMPI drives
// it.
type adiRank struct {
	u, f   *Field5
	tau    float64
	iLines func(r *simmpi.Rank, lo, hi int) // the pipelined i-line solves
	line   func(dim, p, q int)              // one local line solve
}

// runADIMPI is the slab-decomposed ADI time loop BT and SP share. Each
// rank owns i-planes [lo, hi) and, per step, adds the forcing there,
// solves the i-lines through the rank pipeline, solves its j- and
// k-lines locally with the serial kernel's line solve, and reduces the
// norm.
func runADIMPI(n, steps, ranks int, newRank func() adiRank) ([]float64, error) {
	res := make([]float64, steps)
	err := runRanks(ranks, func(r *simmpi.Rank) {
		st := newRank()
		lo, hi := blockRange(n, ranks, r.ID())
		u := st.u.V[st.u.Idx(lo, 0, 0):st.u.Idx(hi, 0, 0)]
		f := st.f.V[st.f.Idx(lo, 0, 0):st.f.Idx(hi, 0, 0)]
		for step := 0; step < steps; step++ {
			for o := range u {
				u[o] += st.tau * f[o]
			}
			st.iLines(r, lo, hi)
			for dim := 1; dim < 3; dim++ {
				for i := lo; i < hi; i++ {
					for q := 0; q < n; q++ {
						st.line(dim, i, q)
					}
				}
			}
			sum := 0.0
			for _, v := range u {
				sum += v * v
			}
			if tot := r.AllreduceSum(sum); r.ID() == 0 {
				res[step] = math.Sqrt(tot / float64(n*n*n*ncomp))
			}
		}
	})
	return res, err
}

// btSolveILines runs the i-direction block-tridiagonal solves as a
// distributed Thomas pipeline: forward elimination state (the W matrix
// and g vector per line) flows right; back-substitution values flow
// left. The per-line arithmetic reproduces blockTriSolve exactly.
func btSolveILines(r *simmpi.Rank, st *BTState, lo, hi, ranks int) {
	n := st.N
	lines := n * n
	a, b, c := st.op.a, st.op.b, st.op.c
	const wgLen = ncomp*ncomp + ncomp // one line's (W, g) payload

	// Per-line state for my planes.
	wMat := make([]mat5, lines*(hi-lo))
	gVec := make([]float64, lines*(hi-lo)*ncomp)

	// Forward elimination.
	var incoming []float64
	if r.ID() > 0 {
		incoming = simmpi.DecodeFloat64s(r.Recv(r.ID()-1, 30))
	}
	outgoing := make([]float64, lines*wgLen)
	var tmp [ncomp]float64
	for line := 0; line < lines; line++ {
		p, q := line/n, line%n
		var wPrev mat5
		var gPrev [ncomp]float64
		havePrev := false
		if r.ID() > 0 {
			copy(wPrev[:], incoming[line*wgLen:line*wgLen+ncomp*ncomp])
			copy(gPrev[:], incoming[line*wgLen+ncomp*ncomp:])
			havePrev = true
		}
		for i := lo; i < hi; i++ {
			off := st.U.Idx(i, p, q)
			rhs := st.U.V[off : off+ncomp]
			d := b
			if havePrev || i > 0 {
				d = b.sub(a.mul(wPrev))
				a.matvec(gPrev[:], tmp[:])
				for cc := 0; cc < ncomp; cc++ {
					rhs[cc] -= tmp[cc]
				}
			}
			dInv := d.invert()
			w := dInv.mul(c)
			dInv.matvec(rhs, tmp[:])
			copy(rhs, tmp[:])
			idx := line*(hi-lo) + (i - lo)
			wMat[idx] = w
			copy(gVec[idx*ncomp:(idx+1)*ncomp], rhs)
			wPrev = w
			copy(gPrev[:], rhs)
			havePrev = true
		}
		copy(outgoing[line*wgLen:line*wgLen+ncomp*ncomp], wPrev[:])
		copy(outgoing[line*wgLen+ncomp*ncomp:(line+1)*wgLen], gPrev[:])
	}
	if r.ID() < ranks-1 {
		r.Send(r.ID()+1, 30, simmpi.AppendFloat64s(nil, outgoing))
	}

	// Back substitution: u_i = g_i - W_i u_{i+1}.
	var uNext []float64
	if r.ID() < ranks-1 {
		uNext = simmpi.DecodeFloat64s(r.Recv(r.ID()+1, 31))
	}
	uOut := make([]float64, lines*ncomp)
	for line := 0; line < lines; line++ {
		p, q := line/n, line%n
		var next [ncomp]float64
		haveNext := r.ID() < ranks-1
		if haveNext {
			copy(next[:], uNext[line*ncomp:(line+1)*ncomp])
		}
		for i := hi - 1; i >= lo; i-- {
			off := st.U.Idx(i, p, q)
			idx := line*(hi-lo) + (i - lo)
			u := st.U.V[off : off+ncomp]
			copy(u, gVec[idx*ncomp:(idx+1)*ncomp])
			if haveNext || i < st.N-1 {
				wMat[idx].matvec(next[:], tmp[:])
				for cc := 0; cc < ncomp; cc++ {
					u[cc] -= tmp[cc]
				}
			}
			copy(next[:], u)
			haveNext = true
		}
		copy(uOut[line*ncomp:(line+1)*ncomp], next[:])
	}
	if r.ID() > 0 {
		r.Send(r.ID()-1, 31, simmpi.AppendFloat64s(nil, uOut))
	}
}

// RunEPMPI runs EP with the batches divided across ranks and the sums
// combined by Allreduce. Counts are exact; sums match serial to
// reduction rounding.
func RunEPMPI(pairs int64, ranks int) (EPResult, error) {
	if err := epCheck(pairs); err != nil {
		return EPResult{}, err
	}
	batches := int(pairs >> epBatchLog2)
	if ranks < 1 || ranks > batches {
		return EPResult{}, fmt.Errorf("npb: %d ranks for %d batches", ranks, batches)
	}
	var res EPResult
	err := runRanks(ranks, func(r *simmpi.Rank) {
		lo, hi := blockRange(batches, ranks, r.ID())
		var part EPResult
		for j := lo; j < hi; j++ {
			epBatch(int64(j), &part)
		}
		vec := []float64{part.Sx, part.Sy, float64(part.Accepted), float64(part.Pairs)}
		for _, cnt := range part.Counts {
			vec = append(vec, float64(cnt))
		}
		tot := r.Allreduce(vec, simmpi.OpSum)
		if r.ID() == 0 {
			res.Sx, res.Sy = tot[0], tot[1]
			res.Accepted, res.Pairs = int64(tot[2]), int64(tot[3])
			for l := range res.Counts {
				res.Counts[l] = int64(tot[4+l])
			}
		}
	})
	return res, err
}
