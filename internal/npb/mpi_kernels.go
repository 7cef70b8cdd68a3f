package npb

import (
	"encoding/binary"
	"fmt"
	"math"

	"maia/internal/simmpi"
)

// Real distributed-memory kernels: CG, FT and IS implemented as genuine
// MPI programs over simmpi ranks, with the reference suite's
// decompositions — row-partitioned CG with an allgathered operand,
// slab-decomposed FT with an all-to-all transpose, and bucketed IS with
// a key exchange. Tests verify each against its serial kernel, so the
// message-passing layer is exercised by real numerics, not just timing
// scripts (those live in mpi.go and drive Figure 20 at class C).

// blockRange splits n items over `ranks`, returning [lo, hi) for rank id
// (first n%ranks ranks get one extra).
func blockRange(n, ranks, id int) (lo, hi int) {
	base := n / ranks
	extra := n % ranks
	lo = id*base + min(id, extra)
	hi = lo + base
	if id < extra {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// allgatherBlocks gathers variable-length float64 blocks (padded to the
// maximum block length for the fixed-size Allgather) and reassembles the
// full vector of length n.
func allgatherBlocks(r *simmpi.Rank, block []float64, n int) []float64 {
	ranks := r.Size()
	maxLen := n/ranks + 1
	padded := make([]float64, maxLen)
	copy(padded, block)
	all := bytesToF64Buf(r.Allgather(f64ToBytesBuf(padded)))
	out := make([]float64, 0, n)
	for id := 0; id < ranks; id++ {
		lo, hi := blockRange(n, ranks, id)
		out = append(out, all[id*maxLen:id*maxLen+(hi-lo)]...)
	}
	return out
}

func f64ToBytesBuf(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

func bytesToF64Buf(b []byte) []float64 {
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

// --- CG ---------------------------------------------------------------

// RunCGMPI runs the CG benchmark as a real MPI program: each rank owns a
// contiguous row block of the matrix; the matvec operand is assembled
// with Allgather and the dot products with Allreduce — the communication
// pattern Figure 20's CG rows are priced with.
func RunCGMPI(m *SparseMatrix, shift float64, outerIters, ranks int) (CGResult, error) {
	if outerIters < 1 {
		return CGResult{}, fmt.Errorf("npb: CG needs at least one iteration")
	}
	if ranks < 1 || ranks > m.N {
		return CGResult{}, fmt.Errorf("npb: %d ranks for a %d-row matrix", ranks, m.N)
	}
	w, err := simmpi.NewWorld(simmpi.Config{Ranks: simmpi.HostPlacement(ranks, 1)})
	if err != nil {
		return CGResult{}, err
	}
	var res CGResult
	err = w.Run(func(r *simmpi.Rank) {
		n := m.N
		lo, hi := blockRange(n, ranks, r.ID())
		mine := hi - lo

		dot := func(a, b []float64) float64 {
			s := 0.0
			for i := range a {
				s += a[i] * b[i]
			}
			return r.AllreduceSum(s)
		}
		matvec := func(pBlock, out []float64) {
			pFull := allgatherBlocks(r, pBlock, n)
			for i := 0; i < mine; i++ {
				row := lo + i
				s := 0.0
				for k := m.RowPtr[row]; k < m.RowPtr[row+1]; k++ {
					s += m.Val[k] * pFull[m.Col[k]]
				}
				out[i] = s
			}
		}

		x := make([]float64, mine)
		z := make([]float64, mine)
		rv := make([]float64, mine)
		p := make([]float64, mine)
		q := make([]float64, mine)
		for i := range x {
			x[i] = 1
		}
		var local CGResult
		for it := 0; it < outerIters; it++ {
			// 25 CG steps for A z = x.
			for i := 0; i < mine; i++ {
				z[i] = 0
				rv[i] = x[i]
				p[i] = x[i]
			}
			rho := dot(rv, rv)
			for step := 0; step < 25; step++ {
				matvec(p, q)
				alpha := rho / dot(p, q)
				for i := 0; i < mine; i++ {
					z[i] += alpha * p[i]
					rv[i] -= alpha * q[i]
				}
				rho0 := rho
				rho = dot(rv, rv)
				beta := rho / rho0
				for i := 0; i < mine; i++ {
					p[i] = rv[i] + beta*p[i]
				}
			}
			local.Residual = math.Sqrt(rho)
			local.Zeta = shift + 1/dot(x, z)
			local.ZetaHistory = append(local.ZetaHistory, local.Zeta)
			norm := math.Sqrt(dot(z, z))
			for i := range x {
				x[i] = z[i] / norm
			}
		}
		if r.ID() == 0 {
			res = local
		}
	})
	return res, err
}

// --- FT ---------------------------------------------------------------

// RunFTMPI runs the FT benchmark as a real MPI program with the
// reference's slab decomposition: ranks own z-slabs for the x/y
// transforms, all-to-all transpose to x-slabs for the z transform, and
// back. nz and nx must be divisible by the rank count. Checksums match
// the serial RunFT.
func RunFTMPI(nx, ny, nz, steps, ranks int) (FTResult, error) {
	for _, n := range []int{nx, ny, nz} {
		if n < 2 || n&(n-1) != 0 {
			return FTResult{}, fmt.Errorf("npb: FT dims must be powers of two >= 2, got %dx%dx%d", nx, ny, nz)
		}
	}
	if steps < 1 {
		return FTResult{}, fmt.Errorf("npb: FT needs at least one step")
	}
	if ranks < 1 || nz%ranks != 0 || nx%ranks != 0 {
		return FTResult{}, fmt.Errorf("npb: %d ranks must divide nz=%d and nx=%d", ranks, nz, nx)
	}
	w, err := simmpi.NewWorld(simmpi.Config{Ranks: simmpi.HostPlacement(ranks, 1)})
	if err != nil {
		return FTResult{}, err
	}
	res := FTResult{
		Checksums: make([]complex128, steps),
		Energies:  make([]float64, steps),
	}
	err = w.Run(func(r *simmpi.Rank) { ftRankBody(r, nx, ny, nz, steps, ranks, &res) })
	return res, err
}

// ftRankBody is one rank's FT program.
func ftRankBody(r *simmpi.Rank, nx, ny, nz, steps, ranks int, res *FTResult) {
	id := r.ID()
	zSlab := nz / ranks // planes per rank in layout A
	xSlab := nx / ranks // columns per rank in layout B
	myZ0 := id * zSlab

	// Layout A: a[(z-myZ0)*ny*nx + y*nx + x]. Initialize from the shared
	// RANDLC stream by seeking to this slab's offset (2 draws per point,
	// stream in z-major order — the serial kernel's layout).
	a := make([]complex128, zSlab*ny*nx)
	seed := RandSeek(DefaultSeed, int64(2*myZ0*ny*nx))
	for i := range a {
		re := Randlc(&seed, MultA)
		im := Randlc(&seed, MultA)
		a[i] = complex(re, im)
	}

	// Forward: x and y transforms on each owned plane.
	ftXY(a, nx, ny, zSlab, false)
	// Transpose to layout B and do the z transforms.
	b := ftTranspose(r, a, nx, ny, nz, ranks, true)
	ftZ(b, ny, nz, xSlab, false)
	freq := b // layout B: b[(x-myX0)*ny*nz + y*nz + z]

	const alpha = 1e-6
	decay := func(n, i int) float64 {
		k := i
		if k > n/2 {
			k -= n
		}
		return float64(k * k)
	}
	myX0 := id * xSlab
	work := make([]complex128, len(freq))
	for step := 1; step <= steps; step++ {
		t := float64(step)
		for xi := 0; xi < xSlab; xi++ {
			for y := 0; y < ny; y++ {
				for z := 0; z < nz; z++ {
					k2 := decay(nx, myX0+xi) + decay(ny, y) + decay(nz, z)
					f := math.Exp(-4 * alpha * math.Pi * math.Pi * k2 * t)
					idx := (xi*ny+y)*nz + z
					work[idx] = freq[idx] * complex(f, 0)
				}
			}
		}
		// Inverse: z transform, transpose back, x/y transforms.
		ftZ(work, ny, nz, xSlab, true)
		back := ftTranspose(r, work, nx, ny, nz, ranks, false)
		ftXY(back, nx, ny, zSlab, true)

		// Checksum and energy over this slab, reduced globally.
		norm := complex(1/float64(nx*ny*nz), 0)
		var sumRe, sumIm, energy float64
		n := nx * ny * nz
		for j := 1; j <= 1024; j++ {
			q := (j * 17) % n
			z := q / (ny * nx)
			if z < myZ0 || z >= myZ0+zSlab {
				continue
			}
			v := back[q-myZ0*ny*nx] * norm
			sumRe += real(v)
			sumIm += imag(v)
		}
		for _, v := range back {
			vv := v * norm
			energy += real(vv)*real(vv) + imag(vv)*imag(vv)
		}
		tot := r.Allreduce([]float64{sumRe, sumIm, energy}, simmpi.OpSum)
		if r.ID() == 0 {
			res.Checksums[step-1] = complex(tot[0], tot[1])
			res.Energies[step-1] = tot[2]
		}
	}
}

// ftXY transforms along x then y for every owned z-plane (layout A).
func ftXY(a []complex128, nx, ny, zSlab int, invert bool) {
	buf := make([]complex128, ny)
	for zi := 0; zi < zSlab; zi++ {
		plane := a[zi*ny*nx : (zi+1)*ny*nx]
		for y := 0; y < ny; y++ {
			fft1D(plane[y*nx:(y+1)*nx], invert)
		}
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				buf[y] = plane[y*nx+x]
			}
			fft1D(buf, invert)
			for y := 0; y < ny; y++ {
				plane[y*nx+x] = buf[y]
			}
		}
	}
}

// ftZ transforms along z for every owned x-column (layout B).
func ftZ(b []complex128, ny, nz, xSlab int, invert bool) {
	for xi := 0; xi < xSlab; xi++ {
		for y := 0; y < ny; y++ {
			fft1D(b[(xi*ny+y)*nz:(xi*ny+y)*nz+nz], invert)
		}
	}
}

// ftTranspose redistributes between layout A (z-slabs, forward=true
// input) and layout B (x-slabs) with one all-to-all. Both directions
// pack (xSlab x ny x zSlab) tiles per destination rank.
func ftTranspose(r *simmpi.Rank, in []complex128, nx, ny, nz, ranks int, toB bool) []complex128 {
	zSlab := nz / ranks
	xSlab := nx / ranks
	tile := xSlab * ny * zSlab
	sendBuf := make([]byte, ranks*tile*16)
	for dst := 0; dst < ranks; dst++ {
		base := dst * tile
		for i := 0; i < tile; i++ {
			var v complex128
			xi := i / (ny * zSlab)
			y := (i / zSlab) % ny
			zi := i % zSlab
			if toB {
				// From layout A: my z-planes, dst's x-columns.
				x := dst*xSlab + xi
				v = in[(zi*ny+y)*nx+x]
			} else {
				// From layout B: my x-columns, dst's z-planes.
				z := dst*zSlab + zi
				v = in[(xi*ny+y)*nz+z]
			}
			off := (base + i) * 16
			binary.LittleEndian.PutUint64(sendBuf[off:], math.Float64bits(real(v)))
			binary.LittleEndian.PutUint64(sendBuf[off+8:], math.Float64bits(imag(v)))
		}
	}
	recvBuf := r.Alltoall(sendBuf, tile*16)
	var out []complex128
	if toB {
		out = make([]complex128, xSlab*ny*nz)
	} else {
		out = make([]complex128, zSlab*ny*nx)
	}
	for src := 0; src < ranks; src++ {
		base := src * tile
		for i := 0; i < tile; i++ {
			off := (base + i) * 16
			v := complex(
				math.Float64frombits(binary.LittleEndian.Uint64(recvBuf[off:])),
				math.Float64frombits(binary.LittleEndian.Uint64(recvBuf[off+8:])))
			xi := i / (ny * zSlab)
			y := (i / zSlab) % ny
			zi := i % zSlab
			if toB {
				// Tile from rank src holds its z-planes of my x-columns.
				z := src*zSlab + zi
				out[(xi*ny+y)*nz+z] = v
			} else {
				// Tile from rank src holds its x-columns of my z-planes.
				x := src*xSlab + xi
				out[(zi*ny+y)*nx+x] = v
			}
		}
	}
	return out
}

// --- IS ---------------------------------------------------------------

// RunISMPI runs the IS benchmark as a real MPI program: each rank
// generates its key block from the shared RANDLC stream, the ranks agree
// on bucket boundaries, exchange keys with an all-to-all, and sort
// locally — the reference's structure. The concatenated result equals
// the serial RunIS output.
func RunISMPI(n, maxKey int64, iters, ranks int) (ISResult, error) {
	if maxKey <= 0 || n <= 0 {
		return ISResult{}, fmt.Errorf("npb: IS needs positive sizes")
	}
	if ranks < 1 || int64(ranks) > n || maxKey%int64(ranks) != 0 {
		return ISResult{}, fmt.Errorf("npb: %d ranks must divide maxKey %d", ranks, maxKey)
	}
	w, err := simmpi.NewWorld(simmpi.Config{Ranks: simmpi.HostPlacement(ranks, 1)})
	if err != nil {
		return ISResult{}, err
	}
	sorted := make([]int32, n)
	counts := make([]int64, ranks)
	err = w.Run(func(r *simmpi.Rank) {
		id := r.ID()
		lo, hi := blockRange(int(n), ranks, id)
		// Generate my block by seeking the stream (4 draws per key).
		keys := make([]int32, hi-lo)
		seed := RandSeek(DefaultSeed, int64(4*lo))
		kscale := float64(maxKey) / 4
		for i := range keys {
			x := Randlc(&seed, MultA)
			x += Randlc(&seed, MultA)
			x += Randlc(&seed, MultA)
			x += Randlc(&seed, MultA)
			keys[i] = int32(kscale * x)
		}
		// The reference's per-iteration mutations, applied by the owner
		// of each mutated global index.
		for it := 1; it <= iters; it++ {
			g1 := it % int(n)
			g2 := (it + int(maxKey/2)) % int(n)
			if g1 >= lo && g1 < hi {
				keys[g1-lo] = int32(it % int(maxKey))
			}
			if g2 >= lo && g2 < hi {
				keys[g2-lo] = int32(maxKey - 1 - int64(it)%maxKey)
			}
		}
		// Bucket by destination rank: key k goes to rank k/(maxKey/ranks).
		per := maxKey / int64(ranks)
		outgoing := make([][]int32, ranks)
		for _, k := range keys {
			d := int(int64(k) / per)
			outgoing[d] = append(outgoing[d], k)
		}
		// Agree on the max block size, pad with -1, exchange.
		maxCount := 0.0
		for _, o := range outgoing {
			if float64(len(o)) > maxCount {
				maxCount = float64(len(o))
			}
		}
		block := int(r.Allreduce([]float64{maxCount}, simmpi.OpMax)[0])
		if block == 0 {
			block = 1
		}
		send := make([]byte, ranks*block*4)
		for d, o := range outgoing {
			for i := 0; i < block; i++ {
				v := int32(-1)
				if i < len(o) {
					v = o[i]
				}
				binary.LittleEndian.PutUint32(send[(d*block+i)*4:], uint32(v))
			}
		}
		recvd := r.Alltoall(send, block*4)
		// Local counting sort of my bucket.
		bucketLo := int64(id) * per
		hist := make([]int64, per)
		var mine int64
		for i := 0; i < len(recvd)/4; i++ {
			v := int32(binary.LittleEndian.Uint32(recvd[i*4:]))
			if v < 0 {
				continue
			}
			hist[int64(v)-bucketLo]++
			mine++
		}
		// Global placement: my bucket starts after all lower buckets.
		startF := r.Allgather(f64ToBytesBuf([]float64{float64(mine)}))
		start := int64(0)
		for j := 0; j < id; j++ {
			start += int64(bytesToF64Buf(startF[j*8 : (j+1)*8])[0])
		}
		pos := start
		for v, c := range hist {
			for j := int64(0); j < c; j++ {
				sorted[pos+j] = int32(int64(v) + bucketLo)
			}
			pos += c
		}
		counts[id] = mine
	})
	if err != nil {
		return ISResult{}, err
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != n {
		return ISResult{}, fmt.Errorf("npb: IS exchange lost keys: %d of %d", total, n)
	}
	return ISResult{Sorted: sorted, Iterations: iters}, nil
}
