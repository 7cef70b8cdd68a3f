package npb

import (
	"fmt"
	"math"

	"maia/internal/simomp"
)

// MG — the multigrid kernel: V-cycles for the 3D Poisson equation
// -∇²u = f with homogeneous Dirichlet boundaries, on a vertex-centered
// grid hierarchy with full-weighting restriction and trilinear
// prolongation. Stencil sweeps stream through memory with unit stride,
// which is what makes MG the one NPB kernel that runs faster on the Phi
// than on the host (Figures 19, 25). The paper's Figure 24 studies
// collapsing the outer two loops of these sweeps; RunMG exposes the same
// choice.

// MGGrid is a vertex-centered cubic grid with N intervals per dimension:
// (N+1)³ points, of which the interior 1..N-1 are unknowns and the
// boundary layer is fixed at zero.
type MGGrid struct {
	N int // intervals per dimension
	V []float64
}

// NewMGGrid allocates an (n+1)³-point grid of zeros.
func NewMGGrid(n int) *MGGrid {
	s := n + 1
	return &MGGrid{N: n, V: make([]float64, s*s*s)}
}

// Idx maps point (i,j,k) in [0, n] to the flat index.
func (g *MGGrid) Idx(i, j, k int) int {
	s := g.N + 1
	return (i*s+j)*s + k
}

// forPlanes runs the interior sweep over i-planes lo..hi (inclusive):
// body row(i,j) covers k=1..n-1 for one (i,j) pencil. The serial
// V-cycle sweeps every interior plane, 1..n-1; an MPI rank sweeps the
// slab it owns. When team is nil the sweep is serial; otherwise the i
// loop (or the fused (i,j) loop, when collapse is set — the paper's
// collapse(2) transformation) is work-shared.
func forPlanes(n, lo, hi int, team *simomp.Team, collapse bool, row func(i, j int)) {
	ni := n - 1 // interior points per dimension
	if team == nil {
		for i := lo; i <= hi; i++ {
			for j := 1; j < n; j++ {
				row(i, j)
			}
		}
		return
	}
	planes := hi - lo + 1
	if collapse {
		team.ParallelFor(planes*ni, simomp.ForOpts{Sched: simomp.Static}, func(ij int) {
			row(lo+ij/ni, ij%ni+1)
		})
		return
	}
	team.ParallelFor(planes, simomp.ForOpts{Sched: simomp.Static}, func(i int) {
		for j := 1; j < n; j++ {
			row(lo+i, j)
		}
	})
}

// MGSmooth runs one weighted-Jacobi sweep u <- u + w D⁻¹ (f - A u) over
// i-planes lo..hi, writing into out (out must differ from u).
func MGSmooth(u, f, out *MGGrid, lo, hi int, team *simomp.Team, collapse bool) {
	n := u.N
	h2 := 1.0 / float64(n*n)
	const w = 2.0 / 3.0
	s := n + 1
	forPlanes(n, lo, hi, team, collapse, func(i, j int) {
		for k := 1; k < n; k++ {
			c := u.Idx(i, j, k)
			lap := (6*u.V[c] - u.V[c-1] - u.V[c+1] -
				u.V[c-s] - u.V[c+s] - u.V[c-s*s] - u.V[c+s*s]) / h2
			out.V[c] = u.V[c] + w*(f.V[c]-lap)*h2/6
		}
	})
}

// MGResidual computes r = f - A u over i-planes lo..hi.
func MGResidual(u, f, r *MGGrid, lo, hi int, team *simomp.Team, collapse bool) {
	n := u.N
	h2 := 1.0 / float64(n*n)
	s := n + 1
	forPlanes(n, lo, hi, team, collapse, func(i, j int) {
		for k := 1; k < n; k++ {
			c := u.Idx(i, j, k)
			lap := (6*u.V[c] - u.V[c-1] - u.V[c+1] -
				u.V[c-s] - u.V[c+s] - u.V[c-s*s] - u.V[c+s*s]) / h2
			r.V[c] = f.V[c] - lap
		}
	})
}

// MGRestrict full-weights the fine residual onto coarse i-planes lo..hi
// (coarse.N == fine.N/2): 27-point stencil with weights ∏(1/4, 1/2, 1/4).
func MGRestrict(fine, coarse *MGGrid, lo, hi int) {
	nc := coarse.N
	w1 := [3]float64{0.25, 0.5, 0.25}
	forPlanes(nc, lo, hi, nil, false, func(i, j int) {
		for k := 1; k < nc; k++ {
			sum := 0.0
			for di := -1; di <= 1; di++ {
				for dj := -1; dj <= 1; dj++ {
					for dk := -1; dk <= 1; dk++ {
						w := w1[di+1] * w1[dj+1] * w1[dk+1]
						sum += w * fine.V[fine.Idx(2*i+di, 2*j+dj, 2*k+dk)]
					}
				}
			}
			coarse.V[coarse.Idx(i, j, k)] = sum
		}
	})
}

// MGProlong adds the trilinear interpolation of the coarse correction
// into fine i-planes lo..hi. Coarse boundary values are zero, so the
// interpolation weights fall off correctly at the edges.
func MGProlong(coarse, fine *MGGrid, lo, hi int) {
	n := fine.N
	forPlanes(n, lo, hi, nil, false, func(i, j int) {
		for k := 1; k < n; k++ {
			v := 0.0
			// Per-dimension: even index hits a coarse point; odd
			// averages its two coarse neighbors.
			i0, iw := i/2, 1.0
			j0, jw := j/2, 1.0
			k0, kw := k/2, 1.0
			iOdd := i%2 == 1
			jOdd := j%2 == 1
			kOdd := k%2 == 1
			if iOdd {
				iw = 0.5
			}
			if jOdd {
				jw = 0.5
			}
			if kOdd {
				kw = 0.5
			}
			for di := 0; di <= b2i(iOdd); di++ {
				for dj := 0; dj <= b2i(jOdd); dj++ {
					for dk := 0; dk <= b2i(kOdd); dk++ {
						v += iw * jw * kw * coarse.V[coarse.Idx(i0+di, j0+dj, k0+dk)]
					}
				}
			}
			fine.V[fine.Idx(i, j, k)] += v
		}
	})
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// mgHierarchy pre-allocates grids per level; level 0 is finest.
type mgHierarchy struct {
	u, f, r, tmp []*MGGrid
}

func newHierarchy(n int) *mgHierarchy {
	h := &mgHierarchy{}
	for s := n; s >= 2; s /= 2 {
		h.u = append(h.u, NewMGGrid(s))
		h.f = append(h.f, NewMGGrid(s))
		h.r = append(h.r, NewMGGrid(s))
		h.tmp = append(h.tmp, NewMGGrid(s))
	}
	return h
}

// vcycle runs one V-cycle at level l with 2 pre- and 2 post-smoothing
// sweeps.
func (h *mgHierarchy) vcycle(l int, team *simomp.Team, collapse bool) {
	n := h.u[l].N
	smooth := func() {
		MGSmooth(h.u[l], h.f[l], h.tmp[l], 1, n-1, team, collapse)
		h.u[l], h.tmp[l] = h.tmp[l], h.u[l]
	}
	if l == len(h.u)-1 {
		// Coarsest (one interior unknown): smooth to convergence.
		for s := 0; s < 8; s++ {
			smooth()
		}
		return
	}
	for s := 0; s < 2; s++ {
		smooth()
	}
	MGResidual(h.u[l], h.f[l], h.r[l], 1, n-1, team, collapse)
	clear(h.u[l+1].V)
	MGRestrict(h.r[l], h.f[l+1], 1, n/2-1)
	h.vcycle(l+1, team, collapse)
	MGProlong(h.u[l+1], h.u[l], 1, n-1)
	for s := 0; s < 2; s++ {
		smooth()
	}
}

// MGResult is the benchmark's verification state.
type MGResult struct {
	ResidualNorms []float64 // L2 residual after each V-cycle
}

// RunMG solves -∇²u = f (f from the RANDLC stream) with `cycles`
// V-cycles on a grid with n intervals per dimension. n must be a power
// of two >= 4. team == nil runs serially; collapse selects the Figure 24
// loop transformation.
func RunMG(n, cycles int, team *simomp.Team, collapse bool) (MGResult, error) {
	if n < 4 || n&(n-1) != 0 {
		return MGResult{}, fmt.Errorf("npb: MG grid %d must be a power of two >= 4", n)
	}
	if cycles < 1 {
		return MGResult{}, fmt.Errorf("npb: MG needs at least one cycle")
	}
	h := newHierarchy(n)
	mgForcing(h.f[0], 1, n-1)
	var res MGResult
	for c := 0; c < cycles; c++ {
		h.vcycle(0, team, collapse)
		MGResidual(h.u[0], h.f[0], h.r[0], 1, n-1, team, collapse)
		res.ResidualNorms = append(res.ResidualNorms, mgNorm(mgSumSq(h.r[0], 1, n-1), n))
	}
	return res, nil
}

// mgForcing fills i-planes lo..hi of f from the RANDLC stream, one draw
// per interior point in plane order: a slab seeks to its first point,
// so every decomposition draws the serial kernel's forcing.
func mgForcing(f *MGGrid, lo, hi int) {
	n := f.N
	seed := RandSeek(DefaultSeed, int64((lo-1)*(n-1)*(n-1)))
	forPlanes(n, lo, hi, nil, false, func(i, j int) {
		for k := 1; k < n; k++ {
			f.V[f.Idx(i, j, k)] = Randlc(&seed, MultA) - 0.5
		}
	})
}

// mgSumSq returns the sum of squares of g's interior over i-planes
// lo..hi.
func mgSumSq(g *MGGrid, lo, hi int) float64 {
	s := 0.0
	forPlanes(g.N, lo, hi, nil, false, func(i, j int) {
		for k := 1; k < g.N; k++ {
			v := g.V[g.Idx(i, j, k)]
			s += v * v
		}
	})
	return s
}

// mgNorm turns a residual's sum of squares into the RMS norm over the
// (n-1)³ interior points.
func mgNorm(sumSq float64, n int) float64 {
	return math.Sqrt(sumSq / float64((n-1)*(n-1)*(n-1)))
}
