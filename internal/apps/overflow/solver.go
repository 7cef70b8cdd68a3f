package overflow

import (
	"fmt"
	"math"

	"maia/internal/machine"
	"maia/internal/simmpi"
	"maia/internal/simomp"
)

// The real solver: implicit ADI time stepping of a diffusion problem
// du/dt = ∇²u + f on a chain of cubic structured zones. Adjacent zones
// overlap through one interpolated ghost plane on each side, the way
// overset grids exchange fringe data; the interpolation is a
// nearest-neighbor sample so zones of different resolutions couple.

// ZoneGrid is one zone's scalar field: an n³ interior with one ghost
// plane at each end of the chain axis (the i direction).
type ZoneGrid struct {
	N int
	// V has (n+2) i-planes of n*n points each: plane 0 and n+1 are the
	// overset ghost planes.
	V []float64
	F []float64 // steady forcing on the interior
}

// NewZoneGrid allocates a zone with n interior points per dimension.
func NewZoneGrid(n int) *ZoneGrid {
	return &ZoneGrid{N: n, V: make([]float64, (n+2)*n*n), F: make([]float64, n*n*n)}
}

// Idx maps (i,j,k) with i in [0, n+2) (ghosts at 0 and n+1).
func (z *ZoneGrid) Idx(i, j, k int) int { return (i*z.N+j)*z.N + k }

// FIdx maps interior (i,j,k), i in [0, n).
func (z *ZoneGrid) FIdx(i, j, k int) int { return (i*z.N+j)*z.N + k }

// BoundaryPlane copies the first or last interior i-plane into out
// (n*n values).
func (z *ZoneGrid) BoundaryPlane(last bool, out []float64) {
	i := 1
	if last {
		i = z.N
	}
	copy(out, z.V[z.Idx(i, 0, 0):z.Idx(i+1, 0, 0)])
}

// SetGhostPlane fills a ghost plane by nearest-neighbor interpolation
// from a donor plane of edge size donorN.
func (z *ZoneGrid) SetGhostPlane(last bool, donor []float64, donorN int) {
	i := 0
	if last {
		i = z.N + 1
	}
	for j := 0; j < z.N; j++ {
		for k := 0; k < z.N; k++ {
			dj := j * donorN / z.N
			dk := k * donorN / z.N
			z.V[z.Idx(i, j, k)] = donor[dj*donorN+dk]
		}
	}
}

// Solver is a chain of zones advanced together.
type Solver struct {
	Zones  []*ZoneGrid
	lambda float64 // dt / h^2 (per-zone h differences folded in)
	dt     float64
}

// NewSolver builds a chain of zones with the given interior sizes,
// random forcing, and zero initial state.
func NewSolver(sizes []int, dt float64) (*Solver, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("overflow: no zones")
	}
	s := &Solver{dt: dt}
	seedState := 314159265.0
	for _, n := range sizes {
		if n < 3 {
			return nil, fmt.Errorf("overflow: zone size %d too small", n)
		}
		z := NewZoneGrid(n)
		for i := range z.F {
			// A fixed LCG keeps the forcing deterministic.
			seedState = math.Mod(seedState*1220703125, 70368744177664)
			z.F[i] = seedState/70368744177664 - 0.5
		}
		s.Zones = append(s.Zones, z)
	}
	s.lambda = dt * float64(sizes[0]*sizes[0])
	return s, nil
}

// tridiag solves (1+2λ) x_i - λ x_{i-1} - λ x_{i+1} = r_i in place
// (Thomas algorithm), with boundary terms already folded into r.
func tridiag(lambda float64, r, cw []float64) {
	n := len(r)
	d := 1 + 2*lambda
	cw[0] = -lambda / d
	r[0] /= d
	for i := 1; i < n; i++ {
		m := d + lambda*cw[i-1]
		cw[i] = -lambda / m
		r[i] = (r[i] + lambda*r[i-1]) / m
	}
	for i := n - 2; i >= 0; i-- {
		r[i] -= cw[i] * r[i+1]
	}
}

// stepZone advances one zone one ADI step, using the current ghost
// planes. Line solves along each dimension are work-shared when a team
// is given.
func (s *Solver) stepZone(z *ZoneGrid, team *simomp.Team) {
	n := z.N
	lam := s.lambda / 3
	// Forcing.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				z.V[z.Idx(i+1, j, k)] += s.dt * z.F[z.FIdx(i, j, k)]
			}
		}
	}
	// Three directional implicit solves. The i-direction lines see the
	// overset ghost planes as Dirichlet data.
	for dim := 0; dim < 3; dim++ {
		solveLine := func(line int) {
			p, q := line/n, line%n
			r := make([]float64, n)
			cw := make([]float64, n)
			for c := 0; c < n; c++ {
				switch dim {
				case 0:
					r[c] = z.V[z.Idx(c+1, p, q)]
				case 1:
					r[c] = z.V[z.Idx(p+1, c, q)]
				default:
					r[c] = z.V[z.Idx(p+1, q, c)]
				}
			}
			if dim == 0 {
				r[0] += lam * z.V[z.Idx(0, p, q)]
				r[n-1] += lam * z.V[z.Idx(n+1, p, q)]
			}
			tridiag(lam, r, cw)
			for c := 0; c < n; c++ {
				switch dim {
				case 0:
					z.V[z.Idx(c+1, p, q)] = r[c]
				case 1:
					z.V[z.Idx(p+1, c, q)] = r[c]
				default:
					z.V[z.Idx(p+1, q, c)] = r[c]
				}
			}
		}
		if team == nil {
			for line := 0; line < n*n; line++ {
				solveLine(line)
			}
		} else {
			team.ParallelFor(n*n, simomp.ForOpts{Sched: simomp.Static}, solveLine)
		}
	}
}

// exchangeSerial updates every interface's ghost planes in place.
func (s *Solver) exchangeSerial() {
	for i := 0; i+1 < len(s.Zones); i++ {
		a, b := s.Zones[i], s.Zones[i+1]
		planeA := make([]float64, a.N*a.N)
		planeB := make([]float64, b.N*b.N)
		a.BoundaryPlane(true, planeA)
		b.BoundaryPlane(false, planeB)
		b.SetGhostPlane(false, planeA, a.N)
		a.SetGhostPlane(true, planeB, b.N)
	}
}

// Step advances the whole chain one time step (exchange, then zone
// steps). team may be nil.
func (s *Solver) Step(team *simomp.Team) {
	s.exchangeSerial()
	for _, z := range s.Zones {
		s.stepZone(z, team)
	}
}

// Norm returns the RMS of the interior solution across all zones.
func (s *Solver) Norm() float64 {
	sum, count := 0.0, 0
	for _, z := range s.Zones {
		n := z.N
		for i := 1; i <= n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					v := z.V[z.Idx(i, j, k)]
					sum += v * v
					count++
				}
			}
		}
	}
	return math.Sqrt(sum / float64(count))
}

// RunMPI executes the solver as a real MPI program: `ranks` simmpi ranks
// own contiguous spans of zones and exchange interface planes as
// messages. It returns the per-zone interior sums (a fingerprint that
// must match the serial run exactly).
func RunMPI(sizes []int, dt float64, steps, ranks int) ([]float64, error) {
	return RunHybrid(sizes, dt, steps, simmpi.HostPlacement(ranks, 1), 0)
}

// RunHybrid is RunMPI generalized to the paper's actual programming
// model: arbitrary rank placement (host ranks, Phi ranks, or a symmetric
// mix — cross-device interface planes then travel over the modeled PCIe
// fabric) and an OpenMP team of `threads` per rank working the line
// solves (0 = no team). Results are placement-independent: the
// fingerprint matches the serial run bitwise.
func RunHybrid(sizes []int, dt float64, steps int, locs []simmpi.Location, threads int) ([]float64, error) {
	ranks := len(locs)
	if ranks < 1 || ranks > len(sizes) {
		return nil, fmt.Errorf("overflow: %d ranks for %d zones", ranks, len(sizes))
	}
	// Contiguous block assignment of zones to ranks.
	owner := make([]int, len(sizes))
	per := (len(sizes) + ranks - 1) / ranks
	for z := range sizes {
		owner[z] = z / per
		if owner[z] >= ranks {
			owner[z] = ranks - 1
		}
	}
	sums := make([]float64, len(sizes))

	w, err := simmpi.NewWorld(simmpi.Config{Ranks: locs})
	if err != nil {
		return nil, err
	}
	err = w.Run(func(r *simmpi.Rank) {
		// Per-rank OpenMP team (hybrid mode).
		var team *simomp.Team
		if threads > 0 {
			part := machine.HostCoresPartition(machine.NewNode(), threads, 1)
			if r.Device().IsPhi() {
				part = machine.PhiThreadsPartition(machine.NewNode(), r.Device(), threads)
			}
			team = simomp.NewTeam(simomp.New(part))
		}
		// Build only the local zones.
		var local []*ZoneGrid
		var localIDs []int
		full, err := NewSolver(sizes, dt)
		if err != nil {
			panic(err)
		}
		for z, o := range owner {
			if o == r.ID() {
				local = append(local, full.Zones[z])
				localIDs = append(localIDs, z)
			}
		}
		sub := &Solver{Zones: local, lambda: full.lambda, dt: dt}
		for step := 0; step < steps; step++ {
			// Internal interfaces.
			sub.exchangeSerial()
			// External interfaces: exchange boundary planes with the
			// neighbouring ranks that own adjacent zones.
			if len(localIDs) > 0 {
				first, last := localIDs[0], localIDs[len(localIDs)-1]
				if first > 0 {
					z := local[0]
					plane := make([]float64, z.N*z.N)
					z.BoundaryPlane(false, plane)
					got := r.Sendrecv(owner[first-1], step, simmpi.AppendFloat64s(nil, plane),
						owner[first-1], step)
					donorN := sizes[first-1]
					z.SetGhostPlane(false, simmpi.DecodeFloat64s(got), donorN)
				}
				if last < len(sizes)-1 {
					z := local[len(local)-1]
					plane := make([]float64, z.N*z.N)
					z.BoundaryPlane(true, plane)
					got := r.Sendrecv(owner[last+1], step, simmpi.AppendFloat64s(nil, plane),
						owner[last+1], step)
					donorN := sizes[last+1]
					z.SetGhostPlane(true, simmpi.DecodeFloat64s(got), donorN)
				}
			}
			for _, z := range sub.Zones {
				sub.stepZone(z, team)
			}
			// Residual-style collective, as the production code does.
			r.AllreduceSum(sub.Norm())
		}
		for i, z := range sub.Zones {
			sum := 0.0
			for idx := z.Idx(1, 0, 0); idx < z.Idx(z.N+1, 0, 0); idx++ {
				sum += z.V[idx]
			}
			sums[localIDs[i]] = sum
		}
	})
	if err != nil {
		return nil, err
	}
	return sums, nil
}
