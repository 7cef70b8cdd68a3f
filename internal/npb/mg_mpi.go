package npb

import (
	"fmt"

	"maia/internal/simmpi"
)

// MG as a real MPI program: the fine levels are slab-decomposed along
// the first grid dimension with one-plane halo exchanges before every
// stencil sweep; once a level is too coarse to keep every rank busy the
// whole problem is gathered to rank 0, which runs the remaining V-cycle
// serially (the reference code's strategy for its coarsest grids) and
// scatters the correction back. Residual histories match the serial
// RunMG to rounding.

// mgSlab is one rank's view of one level: full-size arrays (the mini-app
// trades memory for indexing simplicity) of which only planes
// [lo-1, hi+1] are meaningful.
type mgSlab struct {
	u, f, r, tmp *MGGrid
	lo, hi       int // owned interior i-planes, inclusive
}

// mgRankState is one rank's grid hierarchy.
type mgRankState struct {
	rank   *simmpi.Rank
	ranks  int
	levels []*mgSlab // distributed levels only
	serial *mgHierarchy
	// serialTop is the interval count at which the problem collapses to
	// rank 0.
	serialTop int
}

// slabRange returns the owned interior planes [lo, hi] for a level with
// n intervals (interior planes 1..n-1).
func slabRange(n, ranks, id int) (lo, hi int) {
	per := n / ranks
	lo = id*per + 1
	hi = (id + 1) * per
	if id == ranks-1 {
		hi = n - 1
	}
	return lo, hi
}

// exchangeHalo refreshes the ghost planes lo-1 and hi+1 of grid g from
// the neighbouring ranks. Plane tags disambiguate direction.
func (st *mgRankState) exchangeHalo(g *MGGrid, lo, hi int) {
	r := st.rank
	id := r.ID()
	s := g.N + 1
	plane := func(i int) []float64 { return g.V[g.Idx(i, 0, 0) : g.Idx(i, 0, 0)+s*s] }
	planeBytes := func(i int) []byte { return simmpi.AppendFloat64s(nil, plane(i)) }
	setPlane := func(i int, b []byte) { copy(plane(i), simmpi.DecodeFloat64s(b)) }
	// Right-going: my hi plane becomes the right neighbour's lo-1 ghost.
	if id < st.ranks-1 {
		r.Send(id+1, 10, planeBytes(hi))
	}
	if id > 0 {
		setPlane(lo-1, r.Recv(id-1, 10))
	}
	// Left-going.
	if id > 0 {
		r.Send(id-1, 11, planeBytes(lo))
	}
	if id < st.ranks-1 {
		setPlane(hi+1, r.Recv(id+1, 11))
	}
}

// smoothSlab runs one weighted-Jacobi sweep on the owned planes.
func smoothSlab(sl *mgSlab) {
	MGSmooth(sl.u, sl.f, sl.tmp, sl.lo, sl.hi, nil, false)
	sl.u, sl.tmp = sl.tmp, sl.u
}

// vcycleMPI runs one V-cycle from distributed level l.
func (st *mgRankState) vcycleMPI(l int) {
	sl := st.levels[l]
	for s := 0; s < 2; s++ {
		st.exchangeHalo(sl.u, sl.lo, sl.hi)
		smoothSlab(sl)
	}
	st.exchangeHalo(sl.u, sl.lo, sl.hi)
	MGResidual(sl.u, sl.f, sl.r, sl.lo, sl.hi, nil, false)

	if l == len(st.levels)-1 {
		// Coarse remainder on rank 0.
		st.coarseSolve(sl)
	} else {
		next := st.levels[l+1]
		clear(next.u.V)
		st.exchangeHalo(sl.r, sl.lo, sl.hi)
		MGRestrict(sl.r, next.f, next.lo, next.hi)
		st.vcycleMPI(l + 1)
		st.exchangeHalo(next.u, next.lo, next.hi)
		MGProlong(next.u, sl.u, sl.lo, sl.hi)
	}

	for s := 0; s < 2; s++ {
		st.exchangeHalo(sl.u, sl.lo, sl.hi)
		smoothSlab(sl)
	}
}

// coarseSolve gathers the last distributed level's residual to rank 0,
// runs the remaining serial V-cycle there (restriction, recursion and
// prolongation included via the serial hierarchy), and scatters the
// resulting correction back, adding it into the distributed level's u.
func (st *mgRankState) coarseSolve(sl *mgSlab) {
	r := st.rank
	n := sl.r.N
	s := n + 1
	// Gather every rank's residual planes to rank 0. Blocks must be
	// equal-sized, so every rank ships exactly n/ranks planes starting
	// at lo; for the last rank the final plane is the (zero) boundary.
	per := n / st.ranks
	mine := sl.r.V[sl.r.Idx(sl.lo, 0, 0):sl.r.Idx(sl.lo+per, 0, 0)]
	full := r.Gather(0, simmpi.AppendFloat64s(nil, mine))
	if r.ID() == 0 {
		// Assemble the full residual as the coarse problem's forcing:
		// restrict it one level and run the serial hierarchy below.
		rFull := NewMGGrid(n)
		blockLen := per * s * s
		for id := 0; id < st.ranks; id++ {
			lo, _ := slabRange(n, st.ranks, id)
			src := simmpi.DecodeFloat64s(full[id*blockLen*8 : (id+1)*blockLen*8])
			copy(rFull.V[rFull.Idx(lo, 0, 0):rFull.Idx(lo+per, 0, 0)], src)
		}
		// The serial hierarchy starts at n/2 (the next coarser level).
		h := st.serial
		MGRestrict(rFull, h.f[0], 1, n/2-1)
		clear(h.u[0].V)
		h.vcycle(0, nil, false)
		// Prolong the correction to level n and broadcast it.
		corr := NewMGGrid(n)
		MGProlong(h.u[0], corr, 1, n-1)
		r.Bcast(0, simmpi.AppendFloat64s(nil, corr.V))
		for i := range corr.V {
			sl.u.V[i] += corr.V[i]
		}
	} else {
		payload := r.Bcast(0, make([]byte, len(sl.u.V)*8))
		corr := simmpi.DecodeFloat64s(payload)
		// Apply only to owned planes (+ ghosts refreshed later anyway).
		for i := sl.u.Idx(sl.lo-1, 0, 0); i < sl.u.Idx(sl.hi+1, 0, 0)+s*s && i < len(corr); i++ {
			sl.u.V[i] += corr[i]
		}
	}
}

// RunMGMPI runs the MG benchmark with `ranks` MPI ranks. n must be a
// power of two >= 8 and divisible by 2*ranks (so at least the finest two
// levels are distributed).
func RunMGMPI(n, cycles, ranks int) (MGResult, error) {
	if n < 8 || n&(n-1) != 0 {
		return MGResult{}, fmt.Errorf("npb: MG grid %d must be a power of two >= 8", n)
	}
	if cycles < 1 {
		return MGResult{}, fmt.Errorf("npb: MG needs at least one cycle")
	}
	if ranks < 1 || n%(2*ranks) != 0 {
		return MGResult{}, fmt.Errorf("npb: %d ranks must divide n/2 = %d", ranks, n/2)
	}
	res := MGResult{ResidualNorms: make([]float64, cycles)}
	err := runRanks(ranks, func(r *simmpi.Rank) {
		st := &mgRankState{rank: r, ranks: ranks}
		// Distributed levels: while the slab keeps >= 2 planes per rank
		// and divides evenly.
		for lvl := n; lvl%ranks == 0 && lvl/ranks >= 2 && lvl > 2; lvl /= 2 {
			lo, hi := slabRange(lvl, ranks, r.ID())
			st.levels = append(st.levels, &mgSlab{
				u: NewMGGrid(lvl), f: NewMGGrid(lvl), r: NewMGGrid(lvl),
				tmp: NewMGGrid(lvl), lo: lo, hi: hi,
			})
			st.serialTop = lvl
		}
		if r.ID() == 0 {
			st.serial = newHierarchy(st.serialTop / 2)
		}
		fine := st.levels[0]
		mgForcing(fine.f, fine.lo, fine.hi)
		for c := 0; c < cycles; c++ {
			st.vcycleMPI(0)
			st.exchangeHalo(fine.u, fine.lo, fine.hi)
			MGResidual(fine.u, fine.f, fine.r, fine.lo, fine.hi, nil, false)
			tot := r.AllreduceSum(mgSumSq(fine.r, fine.lo, fine.hi))
			if r.ID() == 0 {
				res.ResidualNorms[c] = mgNorm(tot, n)
			}
		}
	})
	return res, err
}
