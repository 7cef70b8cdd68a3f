package npb

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBlockRange(t *testing.T) {
	// Covers the whole range, contiguous, balanced within 1.
	f := func(nRaw, rRaw uint8) bool {
		n := int(nRaw) + 1
		ranks := int(rRaw)%n + 1
		prev := 0
		minSz, maxSz := n+1, -1
		for id := 0; id < ranks; id++ {
			lo, hi := blockRange(n, ranks, id)
			if lo != prev || hi < lo {
				return false
			}
			if sz := hi - lo; sz < minSz {
				minSz = sz
			}
			if sz := hi - lo; sz > maxSz {
				maxSz = sz
			}
			prev = hi
		}
		return prev == n && maxSz-minSz <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// CG as a real MPI program reproduces the serial zeta for several rank
// counts, including ones that do not divide the matrix order.
func TestCGMPIMatchesSerial(t *testing.T) {
	m := MakeCGMatrix(600, 6)
	ser, err := RunCG(m, 10, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 2, 3, 7} {
		par, err := RunCGMPI(m, 10, 4, ranks)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(par.Zeta-ser.Zeta) > 1e-9*math.Abs(ser.Zeta) {
			t.Fatalf("%d ranks: zeta %v != serial %v", ranks, par.Zeta, ser.Zeta)
		}
		if par.Residual > 1e-6 {
			t.Fatalf("%d ranks: residual %v", ranks, par.Residual)
		}
	}
}

func TestCGMPIValidation(t *testing.T) {
	m := MakeCGMatrix(50, 4)
	if _, err := RunCGMPI(m, 10, 0, 2); err == nil {
		t.Error("zero iterations accepted")
	}
	if _, err := RunCGMPI(m, 10, 1, 51); err == nil {
		t.Error("more ranks than rows accepted")
	}
}

// FT as a real MPI program (slab decomposition + all-to-all transpose)
// reproduces the serial checksums.
func TestFTMPIMatchesSerial(t *testing.T) {
	const nx, ny, nz, steps = 16, 8, 16, 3
	ser, err := RunFT(nx, ny, nz, steps, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 2, 4, 8} {
		par, err := RunFTMPI(nx, ny, nz, steps, ranks)
		if err != nil {
			t.Fatal(err)
		}
		for s := range ser.Checksums {
			d := ser.Checksums[s] - par.Checksums[s]
			if math.Hypot(real(d), imag(d)) > 1e-9 {
				t.Fatalf("%d ranks: checksum %d = %v, serial %v", ranks, s, par.Checksums[s], ser.Checksums[s])
			}
			if math.Abs(ser.Energies[s]-par.Energies[s]) > 1e-9*ser.Energies[s] {
				t.Fatalf("%d ranks: energy %d = %v, serial %v", ranks, s, par.Energies[s], ser.Energies[s])
			}
		}
	}
}

func TestFTMPIValidation(t *testing.T) {
	if _, err := RunFTMPI(12, 8, 8, 1, 2); err == nil {
		t.Error("non-power-of-two dim accepted")
	}
	if _, err := RunFTMPI(16, 8, 16, 1, 3); err == nil {
		t.Error("non-dividing rank count accepted")
	}
	if _, err := RunFTMPI(16, 8, 16, 0, 2); err == nil {
		t.Error("zero steps accepted")
	}
}

// IS as a real MPI program (bucket exchange) reproduces the serial sort
// exactly.
func TestISMPIMatchesSerial(t *testing.T) {
	const n, maxKey, iters = 1 << 12, 1 << 8, 10
	keys := ISKeys(n, maxKey)
	ser, err := RunIS(keys, maxKey, iters, testTeam())
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 2, 4, 8} {
		par, err := RunISMPI(n, maxKey, iters, ranks)
		if err != nil {
			t.Fatal(err)
		}
		if len(par.Sorted) != len(ser.Sorted) {
			t.Fatalf("%d ranks: length %d != %d", ranks, len(par.Sorted), len(ser.Sorted))
		}
		for i := range ser.Sorted {
			if par.Sorted[i] != ser.Sorted[i] {
				t.Fatalf("%d ranks: sorted[%d] = %d, serial %d", ranks, i, par.Sorted[i], ser.Sorted[i])
			}
		}
	}
}

func TestISMPIValidation(t *testing.T) {
	if _, err := RunISMPI(100, 64, 1, 3); err == nil {
		t.Error("non-dividing rank count accepted")
	}
	if _, err := RunISMPI(0, 64, 1, 2); err == nil {
		t.Error("empty input accepted")
	}
}

// The distributed kernels are deterministic across runs.
func TestMPIKernelsDeterministic(t *testing.T) {
	m := MakeCGMatrix(300, 5)
	a, err := RunCGMPI(m, 10, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCGMPI(m, 10, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Zeta != b.Zeta {
		t.Fatalf("CG-MPI nondeterministic: %v vs %v", a.Zeta, b.Zeta)
	}
}

// MG as a real MPI program (slab halos + coarse gather) reproduces the
// serial residual history.
func TestMGMPIMatchesSerial(t *testing.T) {
	const n, cycles = 16, 3
	ser, err := RunMG(n, cycles, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 2, 4} {
		par, err := RunMGMPI(n, cycles, ranks)
		if err != nil {
			t.Fatal(err)
		}
		for c := range ser.ResidualNorms {
			rel := math.Abs(par.ResidualNorms[c]-ser.ResidualNorms[c]) / ser.ResidualNorms[c]
			if rel > 1e-10 {
				t.Fatalf("%d ranks: cycle %d residual %v, serial %v (rel %v)",
					ranks, c, par.ResidualNorms[c], ser.ResidualNorms[c], rel)
			}
		}
	}
}

func TestMGMPIValidation(t *testing.T) {
	if _, err := RunMGMPI(12, 1, 2); err == nil {
		t.Error("non-power-of-two grid accepted")
	}
	if _, err := RunMGMPI(16, 1, 3); err == nil {
		t.Error("non-dividing rank count accepted")
	}
	if _, err := RunMGMPI(16, 0, 2); err == nil {
		t.Error("zero cycles accepted")
	}
	if _, err := RunMGMPI(4, 1, 2); err == nil {
		t.Error("too-small grid accepted")
	}
}

// LU as a pipelined-wavefront MPI program reproduces the serial residual
// history to reduction rounding (the distributed plane order is another
// topological order of the same dependency DAG, so the field itself is
// bit-identical; the norm is summed through AllreduceSum).
func TestLUMPIMatchesSerial(t *testing.T) {
	const n, steps = 8, 3
	ser, err := RunLU(n, steps, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 2, 4} {
		par, err := RunLUMPI(n, steps, ranks)
		if err != nil {
			t.Fatal(err)
		}
		for s := range ser {
			if math.Abs(par[s]-ser[s]) > 1e-13*ser[s] {
				t.Fatalf("%d ranks: step %d residual %v, serial %v", ranks, s, par[s], ser[s])
			}
		}
	}
	if _, err := RunLUMPI(8, 0, 2); err == nil {
		t.Error("zero steps accepted")
	}
	if _, err := RunLUMPI(8, 1, 9); err == nil {
		t.Error("too many ranks accepted")
	}
}

// BT as a distributed block-Thomas ADI program reproduces the serial
// norm history to reduction rounding.
func TestBTMPIMatchesSerial(t *testing.T) {
	const n, steps = 10, 3
	ser, err := RunBT(n, steps, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 2, 5} {
		par, err := RunBTMPI(n, steps, ranks)
		if err != nil {
			t.Fatal(err)
		}
		for s := range ser {
			if math.Abs(par[s]-ser[s]) > 1e-12*math.Max(ser[s], 1e-30) {
				t.Fatalf("%d ranks: step %d norm %v, serial %v", ranks, s, par[s], ser[s])
			}
		}
	}
	if _, err := RunBTMPI(10, 1, 11); err == nil {
		t.Error("too many ranks accepted")
	}
}

// EP-MPI: exact counts, sums to reduction rounding.
func TestEPMPIMatchesSerial(t *testing.T) {
	const pairs = 1 << 20
	ser, err := RunEP(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 2, 4} {
		par, err := RunEPMPI(pairs, ranks)
		if err != nil {
			t.Fatal(err)
		}
		if par.Accepted != ser.Accepted || par.Counts != ser.Counts || par.Pairs != ser.Pairs {
			t.Fatalf("%d ranks: counts differ", ranks)
		}
		if math.Abs(par.Sx-ser.Sx) > 1e-9 || math.Abs(par.Sy-ser.Sy) > 1e-9 {
			t.Fatalf("%d ranks: sums (%v, %v) vs serial (%v, %v)", ranks, par.Sx, par.Sy, ser.Sx, ser.Sy)
		}
	}
	if _, err := RunEPMPI(100, 2); err == nil {
		t.Error("bad pair count accepted")
	}
}

// SP as a pipelined pentadiagonal ADI program reproduces the serial norm
// history to reduction rounding — completing genuine distributed implementations for
// all eight NPB kernels.
func TestSPMPIMatchesSerial(t *testing.T) {
	const n, steps = 12, 3
	ser, err := RunSP(n, steps, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 2, 3, 6} {
		par, err := RunSPMPI(n, steps, ranks)
		if err != nil {
			t.Fatal(err)
		}
		for s := range ser {
			if math.Abs(par[s]-ser[s]) > 1e-12*math.Max(ser[s], 1e-30) {
				t.Fatalf("%d ranks: step %d norm %v, serial %v", ranks, s, par[s], ser[s])
			}
		}
	}
	if _, err := RunSPMPI(12, 1, 7); err == nil {
		t.Error("too many ranks accepted")
	}
	if _, err := RunSPMPI(4, 1, 1); err == nil {
		t.Error("tiny grid accepted")
	}
}
