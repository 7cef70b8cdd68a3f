// Package cart3d is a compact stand-in for NASA's Cart3D (Section 3.7.2):
// an inviscid, cell-centred, finite-volume Euler solver on a Cartesian
// mesh, advanced with Runge-Kutta time stepping, parallelized purely with
// OpenMP — the paper's pure-OpenMP production application (Figure 21).
//
// The solver is real: it integrates the 3D compressible Euler equations
// with a Rusanov (local Lax-Friedrichs) flux on a periodic Cartesian box,
// conserving mass, momentum and energy to machine precision. The paper's
// OneraM6 case (6 million cells, steady-state with multigrid-accelerated
// RK) is represented by the OneraM6 work profile; the multigrid
// acceleration enters as its effect on the iteration count, since the
// evaluation depends only on per-iteration cost.
package cart3d

import (
	"fmt"
	"math"

	"maia/internal/simomp"
)

// nvar is the conservative variable count: rho, rho*u, rho*v, rho*w, E.
const nvar = 5

// Gamma is the ratio of specific heats (air).
const Gamma = 1.4

// Solver holds the mesh and state.
type Solver struct {
	Nx, Ny, Nz int
	H          float64 // cell size
	U          []float64
	res        []float64
	u1         []float64
}

// NewSolver allocates an nx x ny x nz periodic box initialized to the
// free stream (rho=1, u=(0.5,0,0), p=1).
func NewSolver(nx, ny, nz int) (*Solver, error) {
	if nx < 3 || ny < 3 || nz < 3 {
		return nil, fmt.Errorf("cart3d: mesh %dx%dx%d too small", nx, ny, nz)
	}
	n := nx * ny * nz * nvar
	s := &Solver{Nx: nx, Ny: ny, Nz: nz, H: 1.0 / float64(nx),
		U: make([]float64, n), res: make([]float64, n), u1: make([]float64, n)}
	for c := 0; c < nx*ny*nz; c++ {
		s.setPrimitive(c, 1.0, 0.5, 0, 0, 1.0)
	}
	return s, nil
}

// Idx returns the flat cell index of (i,j,k) with periodic wrapping.
func (s *Solver) Idx(i, j, k int) int {
	i = (i + s.Nx) % s.Nx
	j = (j + s.Ny) % s.Ny
	k = (k + s.Nz) % s.Nz
	return (i*s.Ny+j)*s.Nz + k
}

// setPrimitive writes a cell from primitive variables.
func (s *Solver) setPrimitive(cell int, rho, u, v, w, p float64) {
	o := cell * nvar
	s.U[o] = rho
	s.U[o+1] = rho * u
	s.U[o+2] = rho * v
	s.U[o+3] = rho * w
	s.U[o+4] = p/(Gamma-1) + 0.5*rho*(u*u+v*v+w*w)
}

// Primitive returns (rho, u, v, w, p) of a cell.
func (s *Solver) Primitive(cell int) (rho, u, v, w, p float64) {
	o := cell * nvar
	rho = s.U[o]
	u = s.U[o+1] / rho
	v = s.U[o+2] / rho
	w = s.U[o+3] / rho
	p = (Gamma - 1) * (s.U[o+4] - 0.5*rho*(u*u+v*v+w*w))
	return
}

// AddPressurePulse superimposes a smooth density/pressure bump centred in
// the domain — the test disturbance the verification suite evolves.
func (s *Solver) AddPressurePulse(amplitude float64) {
	for i := 0; i < s.Nx; i++ {
		for j := 0; j < s.Ny; j++ {
			for k := 0; k < s.Nz; k++ {
				dx := float64(i)/float64(s.Nx) - 0.5
				dy := float64(j)/float64(s.Ny) - 0.5
				dz := float64(k)/float64(s.Nz) - 0.5
				bump := amplitude * math.Exp(-50*(dx*dx+dy*dy+dz*dz))
				c := s.Idx(i, j, k)
				rho, u, v, w, p := s.Primitive(c)
				s.setPrimitive(c, rho+bump, u, v, w, p+bump)
			}
		}
	}
}

// flux computes the Euler flux of state u5 along direction d (0,1,2)
// into f.
func flux(u5 []float64, d int, f *[nvar]float64) {
	rho := u5[0]
	vel := u5[1+d] / rho
	p := (Gamma - 1) * (u5[4] - 0.5*(u5[1]*u5[1]+u5[2]*u5[2]+u5[3]*u5[3])/rho)
	f[0] = u5[1+d]
	f[1] = u5[1] * vel
	f[2] = u5[2] * vel
	f[3] = u5[3] * vel
	f[1+d] += p
	f[4] = (u5[4] + p) * vel
}

// waveSpeed returns |v_d| + c for state u5.
func waveSpeed(u5 []float64, d int) float64 {
	rho := u5[0]
	vel := math.Abs(u5[1+d] / rho)
	p := (Gamma - 1) * (u5[4] - 0.5*(u5[1]*u5[1]+u5[2]*u5[2]+u5[3]*u5[3])/rho)
	return vel + math.Sqrt(Gamma*p/rho)
}

// residual fills s.res with -div(F) for state u, work-shared over
// i-planes. Each cell accumulates Rusanov fluxes over its six faces;
// writes are disjoint per cell.
func (s *Solver) residual(u []float64, team *simomp.Team) {
	body := func(i int) {
		var fl, fr [nvar]float64
		for j := 0; j < s.Ny; j++ {
			for k := 0; k < s.Nz; k++ {
				c := s.Idx(i, j, k)
				co := c * nvar
				for q := 0; q < nvar; q++ {
					s.res[co+q] = 0
				}
				for d := 0; d < 3; d++ {
					var ni, nj, nk, pi, pj, pk int
					switch d {
					case 0:
						ni, nj, nk = i+1, j, k
						pi, pj, pk = i-1, j, k
					case 1:
						ni, nj, nk = i, j+1, k
						pi, pj, pk = i, j-1, k
					default:
						ni, nj, nk = i, j, k+1
						pi, pj, pk = i, j, k-1
					}
					nb := s.Idx(ni, nj, nk) * nvar
					pb := s.Idx(pi, pj, pk) * nvar
					uc := u[co : co+nvar]
					un := u[nb : nb+nvar]
					up := u[pb : pb+nvar]
					// Face (c, n): Rusanov.
					flux(uc, d, &fl)
					flux(un, d, &fr)
					sm := math.Max(waveSpeed(uc, d), waveSpeed(un, d))
					for q := 0; q < nvar; q++ {
						fPlus := 0.5*(fl[q]+fr[q]) - 0.5*sm*(un[q]-uc[q])
						s.res[co+q] -= fPlus / s.H
					}
					// Face (p, c).
					flux(up, d, &fl)
					flux(uc, d, &fr)
					sm = math.Max(waveSpeed(up, d), waveSpeed(uc, d))
					for q := 0; q < nvar; q++ {
						fMinus := 0.5*(fl[q]+fr[q]) - 0.5*sm*(uc[q]-up[q])
						s.res[co+q] += fMinus / s.H
					}
				}
			}
		}
	}
	if team == nil {
		for i := 0; i < s.Nx; i++ {
			body(i)
		}
		return
	}
	team.ParallelFor(s.Nx, simomp.ForOpts{Sched: simomp.Static}, body)
}

// Step advances one RK2 (Heun) step with time step dt.
func (s *Solver) Step(dt float64, team *simomp.Team) {
	n := len(s.U)
	s.residual(s.U, team)
	for i := 0; i < n; i++ {
		s.u1[i] = s.U[i] + dt*s.res[i]
	}
	s.residual(s.u1, team)
	for i := 0; i < n; i++ {
		s.U[i] = 0.5*(s.U[i]+s.u1[i]) + 0.5*dt*s.res[i]
	}
}

// StableDt returns a CFL-limited time step.
func (s *Solver) StableDt(cfl float64) float64 {
	maxS := 0.0
	cells := s.Nx * s.Ny * s.Nz
	for c := 0; c < cells; c++ {
		for d := 0; d < 3; d++ {
			if v := waveSpeed(s.U[c*nvar:(c+1)*nvar], d); v > maxS {
				maxS = v
			}
		}
	}
	return cfl * s.H / maxS / 3
}

// Totals returns the domain sums of the five conserved quantities —
// exactly constant on the periodic box.
func (s *Solver) Totals() [nvar]float64 {
	var t [nvar]float64
	cells := s.Nx * s.Ny * s.Nz
	for c := 0; c < cells; c++ {
		for q := 0; q < nvar; q++ {
			t[q] += s.U[c*nvar+q]
		}
	}
	return t
}
