package npb

import (
	"fmt"
	"math"
	"math/cmplx"

	"maia/internal/simomp"
)

// FT — the spectral kernel: solve a 3D diffusion equation by forward
// 3D FFT, evolution in frequency space, and inverse FFT, with a checksum
// per time step. The transpose-like passes give FT its strided access
// character; its five complex-grid arrays are what overflow the Phi's
// 8 GB at class C (Section 6.8.2: "needs a minimum of 10 GB").

// fft1D runs an in-place iterative radix-2 Cooley-Tukey transform.
// invert selects the inverse transform (unscaled; callers normalize).
func fft1D(a []complex128, invert bool) {
	n := len(a)
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("npb: FFT length %d not a power of two", n))
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		tw := twiddles(length, invert)
		half := length / 2
		for i := 0; i < n; i += length {
			for j := 0; j < half; j++ {
				u := a[i+j]
				v := a[i+j+half] * tw[j]
				a[i+j] = u + v
				a[i+j+half] = u - v
			}
		}
	}
}

// FTGrid is a 3D complex grid stored x-fastest.
type FTGrid struct {
	Nx, Ny, Nz int
	V          []complex128
}

// NewFTGrid allocates a zeroed grid.
func NewFTGrid(nx, ny, nz int) *FTGrid {
	return &FTGrid{Nx: nx, Ny: ny, Nz: nz, V: make([]complex128, nx*ny*nz)}
}

// Idx maps (x,y,z) to the flat index.
func (g *FTGrid) Idx(x, y, z int) int { return (z*g.Ny+y)*g.Nx + x }

// FFT3D transforms the grid in place along all three dimensions. The
// per-pencil loops are work-shared across the team when one is given.
func FFT3D(g *FTGrid, invert bool, team *simomp.Team) {
	nx, ny, nz := g.Nx, g.Ny, g.Nz
	// X pencils: contiguous.
	runPencils(team, ny*nz, func(p int) {
		off := p * nx
		fft1D(g.V[off:off+nx], invert)
	})
	// Y pencils: stride nx. The scratch buffer is fully overwritten
	// before it is read.
	runPencilsBuf(team, nx*nz, ny, func(p int, buf []complex128) {
		z := p / nx
		x := p % nx
		for y := 0; y < ny; y++ {
			buf[y] = g.V[g.Idx(x, y, z)]
		}
		fft1D(buf, invert)
		for y := 0; y < ny; y++ {
			g.V[g.Idx(x, y, z)] = buf[y]
		}
	})
	// Z pencils: stride nx*ny.
	runPencilsBuf(team, nx*ny, nz, func(p int, buf []complex128) {
		y := p / nx
		x := p % nx
		for z := 0; z < nz; z++ {
			buf[z] = g.V[g.Idx(x, y, z)]
		}
		fft1D(buf, invert)
		for z := 0; z < nz; z++ {
			g.V[g.Idx(x, y, z)] = buf[z]
		}
	})
}

func runPencils(team *simomp.Team, n int, body func(p int)) {
	if team == nil {
		for p := 0; p < n; p++ {
			body(p)
		}
		return
	}
	team.ParallelFor(n, simomp.ForOpts{Sched: simomp.Static}, body)
}

// runPencilsBuf is runPencils for bodies needing bufLen scratch
// elements. Serial runs share one buffer across all pencils; team runs
// take one per body invocation, since bodies execute concurrently on
// the team's workers.
func runPencilsBuf(team *simomp.Team, n, bufLen int, body func(p int, buf []complex128)) {
	if team == nil {
		buf := make([]complex128, bufLen)
		for p := 0; p < n; p++ {
			body(p, buf)
		}
		return
	}
	team.ParallelFor(n, simomp.ForOpts{Sched: simomp.Static}, func(p int) {
		body(p, make([]complex128, bufLen))
	})
}

// FTResult carries the per-step checksums the suite verifies, plus the
// physical-space energy after each step (the diffusion evolution damps
// every nonzero mode, so energies decrease monotonically — the package's
// physical invariant).
type FTResult struct {
	Checksums []complex128
	Energies  []float64
}

// RunFT runs the FT benchmark: initialize the grid from the RANDLC
// stream, forward-transform once, then for each time step evolve in
// frequency space, inverse-transform a copy, and checksum it.
func RunFT(nx, ny, nz, steps int, team *simomp.Team) (FTResult, error) {
	for _, n := range []int{nx, ny, nz} {
		if n < 2 || n&(n-1) != 0 {
			return FTResult{}, fmt.Errorf("npb: FT dims must be powers of two >= 2, got %dx%dx%d", nx, ny, nz)
		}
	}
	if steps < 1 {
		return FTResult{}, fmt.Errorf("npb: FT needs at least one step")
	}
	u0 := NewFTGrid(nx, ny, nz)
	seed := DefaultSeed
	for i := range u0.V {
		re := Randlc(&seed, MultA)
		im := Randlc(&seed, MultA)
		u0.V[i] = complex(re, im)
	}

	// Forward transform once.
	freq := NewFTGrid(nx, ny, nz)
	copy(freq.V, u0.V)
	FFT3D(freq, false, team)

	// Frequency-space decay factors exp(-4 alpha pi^2 |k|^2 t).
	const alpha = 1e-6
	decay := func(n, i int) float64 {
		k := i
		if k > n/2 {
			k -= n
		}
		return float64(k * k)
	}

	res := FTResult{}
	work := NewFTGrid(nx, ny, nz)
	for step := 1; step <= steps; step++ {
		t := float64(step)
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					k2 := decay(nx, x) + decay(ny, y) + decay(nz, z)
					f := math.Exp(-4 * alpha * math.Pi * math.Pi * k2 * t)
					work.V[work.Idx(x, y, z)] = freq.V[freq.Idx(x, y, z)] * complex(f, 0)
				}
			}
		}
		FFT3D(work, true, team)
		// Normalize the inverse transform and checksum 1024 strided
		// samples, like the reference.
		norm := complex(1/float64(nx*ny*nz), 0)
		var sum complex128
		energy := 0.0
		n := nx * ny * nz
		for j := 1; j <= 1024; j++ {
			q := (j * 17) % n
			sum += work.V[q] * norm
		}
		for _, v := range work.V {
			vv := v * norm
			energy += real(vv)*real(vv) + imag(vv)*imag(vv)
		}
		res.Checksums = append(res.Checksums, sum)
		res.Energies = append(res.Energies, energy)
	}
	return res, nil
}

// FTRoundTripError transforms a grid forward and back and returns the
// max abs error vs the original — the property test for the FFT core.
func FTRoundTripError(g *FTGrid, team *simomp.Team) float64 {
	orig := make([]complex128, len(g.V))
	copy(orig, g.V)
	FFT3D(g, false, team)
	FFT3D(g, true, team)
	norm := complex(1/float64(g.Nx*g.Ny*g.Nz), 0)
	maxErr := 0.0
	for i := range g.V {
		g.V[i] *= norm
		if e := cmplx.Abs(g.V[i] - orig[i]); e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}
