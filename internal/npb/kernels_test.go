package npb

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"maia/internal/machine"
	"maia/internal/simomp"
	"maia/internal/vclock"
)

func testTeam() *simomp.Team {
	part := machine.HostCoresPartition(machine.NewNode(), 8, 1)
	return simomp.NewTeam(simomp.New(part))
}

// --- RANDLC ---

func TestRandlcRange(t *testing.T) {
	x := DefaultSeed
	for i := 0; i < 10000; i++ {
		v := Randlc(&x, MultA)
		if v <= 0 || v >= 1 {
			t.Fatalf("Randlc out of (0,1): %v", v)
		}
	}
}

// RandSeek(k) must equal k sequential steps, for arbitrary k.
func TestRandSeekMatchesSequential(t *testing.T) {
	f := func(kRaw uint16) bool {
		k := int64(kRaw % 5000)
		x := DefaultSeed
		for i := int64(0); i < k; i++ {
			Randlc(&x, MultA)
		}
		return RandSeek(DefaultSeed, k) == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVRandlc(t *testing.T) {
	x1, x2 := DefaultSeed, DefaultSeed
	buf := make([]float64, 100)
	VRandlc(&x1, MultA, buf)
	for i := range buf {
		if buf[i] != Randlc(&x2, MultA) {
			t.Fatalf("VRandlc diverges at %d", i)
		}
	}
}

// --- EP ---

// The official NPB class S verification values: EP is reproduced exactly.
func TestEPClassSReference(t *testing.T) {
	if testing.Short() {
		t.Skip("class S EP is ~1s")
	}
	r, err := RunEP(1<<24, nil)
	if err != nil {
		t.Fatal(err)
	}
	const wantSx, wantSy = -3.247834652034740e3, -6.958407078382297e3
	if math.Abs(r.Sx-wantSx) > 1e-8 || math.Abs(r.Sy-wantSy) > 1e-8 {
		t.Errorf("EP.S sums = (%v, %v), want (%v, %v)", r.Sx, r.Sy, wantSx, wantSy)
	}
	if r.Accepted != 13176389 {
		t.Errorf("EP.S accepted = %d, want 13176389", r.Accepted)
	}
	var gaussians int64
	for _, c := range r.Counts {
		gaussians += c
	}
	if gaussians != r.Accepted {
		t.Errorf("annulus counts (%d) != accepted (%d)", gaussians, r.Accepted)
	}
}

// The parallel run is bit-identical to the serial (nil-team) run.
func TestEPParallelMatchesSerial(t *testing.T) {
	const pairs = 1 << 20
	ser, err := RunEP(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunEP(pairs, testTeam())
	if err != nil {
		t.Fatal(err)
	}
	if ser != par {
		t.Fatalf("parallel EP differs: %+v vs %+v", par, ser)
	}
}

func TestEPValidation(t *testing.T) {
	if _, err := RunEP(100, nil); err == nil {
		t.Error("non-multiple pair count accepted")
	}
	if _, err := RunEP(0, testTeam()); err == nil {
		t.Error("zero pairs accepted")
	}
}

// --- IS ---

func TestISSortsAndPermutes(t *testing.T) {
	keys := ISKeys(1<<14, 1<<9)
	res, err := RunIS(keys, 1<<9, 10, testTeam())
	if err != nil {
		t.Fatal(err)
	}
	if err := ISVerify(keys, 1<<9, 10, res); err != nil {
		t.Fatal(err)
	}
}

func TestISKeyDistribution(t *testing.T) {
	// Sum of four uniforms: mean maxKey/2, concentrated middle.
	keys := ISKeys(1<<15, 1<<10)
	var mean float64
	for _, k := range keys {
		if k < 0 || int64(k) >= 1<<10 {
			t.Fatalf("key %d out of range", k)
		}
		mean += float64(k)
	}
	mean /= float64(len(keys))
	if mean < 450 || mean > 570 {
		t.Errorf("key mean = %v, want ~512", mean)
	}
}

func TestISValidation(t *testing.T) {
	if _, err := RunIS(nil, 16, 1, testTeam()); err == nil {
		t.Error("empty keys accepted")
	}
	if _, err := RunIS([]int32{1}, 0, 1, testTeam()); err == nil {
		t.Error("zero maxKey accepted")
	}
}

// Property: for random inputs, IS output is sorted and a permutation.
func TestISProperty(t *testing.T) {
	team := testTeam()
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%2000) + 10
		rng := vclock.NewRNG(seed)
		keys := make([]int32, n)
		for i := range keys {
			keys[i] = int32(rng.Intn(64))
		}
		res, err := RunIS(keys, 64, 3, team)
		if err != nil {
			return false
		}
		return ISVerify(keys, 64, 3, res) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// --- CG ---

func TestCGMatrixIsSymmetricDominant(t *testing.T) {
	m := MakeCGMatrix(200, 5)
	// Build a dense mirror to check symmetry.
	dense := make([][]float64, m.N)
	for i := range dense {
		dense[i] = make([]float64, m.N)
	}
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			dense[i][m.Col[k]] += m.Val[k]
		}
	}
	for i := 0; i < m.N; i++ {
		offSum := 0.0
		for j := 0; j < m.N; j++ {
			if math.Abs(dense[i][j]-dense[j][i]) > 1e-12 {
				t.Fatalf("matrix not symmetric at (%d,%d)", i, j)
			}
			if i != j {
				offSum += math.Abs(dense[i][j])
			}
		}
		if dense[i][i] <= offSum {
			t.Fatalf("row %d not strictly diagonally dominant", i)
		}
	}
}

func TestCGSolvesSystem(t *testing.T) {
	m := MakeCGMatrix(500, 7)
	x := make([]float64, m.N)
	z := make([]float64, m.N)
	for i := range x {
		x[i] = 1
	}
	res := cgSolve(x, z, 25, teamCGOps(m, nil))
	// Residual must have dropped by orders of magnitude vs ||x||.
	if res > 1e-6*math.Sqrt(float64(m.N)) {
		t.Fatalf("CG residual %v too large", res)
	}
	// Check A z ~= x directly.
	y := make([]float64, m.N)
	SpMV(m, z, y, nil)
	for i := range y {
		if math.Abs(y[i]-x[i]) > 1e-5 {
			t.Fatalf("A z != x at %d: %v", i, y[i])
		}
	}
}

func TestCGParallelMatchesSerial(t *testing.T) {
	m := MakeCGMatrix(800, 6)
	ser, err := RunCG(m, 10, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunCG(m, 10, 3, testTeam())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ser.Zeta-par.Zeta) > 1e-9*math.Abs(ser.Zeta) {
		t.Fatalf("zeta differs: %v vs %v", ser.Zeta, par.Zeta)
	}
}

func TestCGZetaStabilizes(t *testing.T) {
	// Power iteration converges geometrically: late zeta changes are
	// far smaller than early ones and settle below 1%.
	m := MakeCGMatrix(400, 6)
	r, err := RunCG(m, 10, 15, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := r.ZetaHistory
	early := math.Abs(h[2] - h[1])
	late := math.Abs(h[len(h)-1] - h[len(h)-2])
	if late > early/2 {
		t.Fatalf("zeta deltas not shrinking: early %v, late %v (%v)", early, late, h)
	}
	if late > 1e-2*math.Abs(h[len(h)-1]) {
		t.Fatalf("zeta still moving by %v at iteration 15", late)
	}
	if _, err := RunCG(m, 10, 0, nil); err == nil {
		t.Error("zero iterations accepted")
	}
}

// --- MG ---

func TestMGResidualDecreases(t *testing.T) {
	res, err := RunMG(32, 4, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.ResidualNorms); i++ {
		if res.ResidualNorms[i] >= res.ResidualNorms[i-1] {
			t.Fatalf("residual did not decrease at cycle %d: %v", i, res.ResidualNorms)
		}
	}
	if res.ResidualNorms[len(res.ResidualNorms)-1] > res.ResidualNorms[0]/4 {
		t.Fatalf("V-cycles converge too slowly: %v", res.ResidualNorms)
	}
}

func TestMGParallelAndCollapseMatchSerial(t *testing.T) {
	ser, err := RunMG(16, 3, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	team := testTeam()
	for _, collapse := range []bool{false, true} {
		par, err := RunMG(16, 3, team, collapse)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ser.ResidualNorms {
			if math.Abs(par.ResidualNorms[i]-ser.ResidualNorms[i]) > 1e-12 {
				t.Fatalf("collapse=%v: residual %d differs: %v vs %v",
					collapse, i, par.ResidualNorms[i], ser.ResidualNorms[i])
			}
		}
	}
}

// A sweep over a sub-range of i-planes, which is what an MPI rank runs
// on its slab, computes on a team (collapse off and on) exactly what the
// serial whole-grid sweep computes on those planes, and writes no other
// point.
func TestMGSweepSubRangeMatchesSerial(t *testing.T) {
	const n, lo, hi, untouched = 16, 5, 11, 7.0
	u, f := NewMGGrid(n), NewMGGrid(n)
	seed := DefaultSeed
	for i := range u.V {
		u.V[i] = Randlc(&seed, MultA)
		f.V[i] = Randlc(&seed, MultA)
	}
	fresh := func() *MGGrid {
		g := NewMGGrid(n)
		for i := range g.V {
			g.V[i] = untouched
		}
		return g
	}
	sweeps := map[string]func(out *MGGrid, lo, hi int, team *simomp.Team, collapse bool){
		"smooth": func(out *MGGrid, lo, hi int, team *simomp.Team, collapse bool) {
			MGSmooth(u, f, out, lo, hi, team, collapse)
		},
		"residual": func(out *MGGrid, lo, hi int, team *simomp.Team, collapse bool) {
			MGResidual(u, f, out, lo, hi, team, collapse)
		},
	}
	team := testTeam()
	for name, sweep := range sweeps {
		whole := fresh()
		sweep(whole, 1, n-1, nil, false)
		for _, collapse := range []bool{false, true} {
			got := fresh()
			sweep(got, lo, hi, team, collapse)
			for i := 0; i <= n; i++ {
				for j := 0; j <= n; j++ {
					for k := 0; k <= n; k++ {
						want := whole.V[whole.Idx(i, j, k)]
						if i < lo || i > hi {
							want = untouched
						}
						if v := got.V[got.Idx(i, j, k)]; math.Float64bits(v) != math.Float64bits(want) {
							t.Fatalf("%s collapse=%v: (%d,%d,%d) = %v, want %v", name, collapse, i, j, k, v, want)
						}
					}
				}
			}
		}
	}
}

func TestMGValidation(t *testing.T) {
	if _, err := RunMG(17, 1, nil, false); err == nil {
		t.Error("non-power-of-two grid accepted")
	}
	if _, err := RunMG(2, 1, nil, false); err == nil {
		t.Error("tiny grid accepted")
	}
	if _, err := RunMG(16, 0, nil, false); err == nil {
		t.Error("zero cycles accepted")
	}
}

// --- FT ---

func TestFFT1DKnownTransform(t *testing.T) {
	// FFT of a constant is a delta at k=0.
	a := make([]complex128, 8)
	for i := range a {
		a[i] = 1
	}
	fft1D(a, false)
	if math.Abs(real(a[0])-8) > 1e-12 || math.Abs(imag(a[0])) > 1e-12 {
		t.Fatalf("DC bin = %v, want 8", a[0])
	}
	for i := 1; i < 8; i++ {
		if math.Hypot(real(a[i]), imag(a[i])) > 1e-12 {
			t.Fatalf("bin %d = %v, want 0", i, a[i])
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := vclock.NewRNG(seed)
		g := NewFTGrid(8, 4, 16)
		for i := range g.V {
			g.V[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
		return FTRoundTripError(g, nil) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFTParallelMatchesSerial(t *testing.T) {
	ser, err := RunFT(16, 16, 8, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunFT(16, 16, 8, 3, testTeam())
	if err != nil {
		t.Fatal(err)
	}
	for i := range ser.Checksums {
		d := ser.Checksums[i] - par.Checksums[i]
		if math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("checksum %d differs: %v vs %v", i, ser.Checksums[i], par.Checksums[i])
		}
	}
}

// The diffusion evolution damps every nonzero mode: physical-space
// energy decreases monotonically across steps.
func TestFTEvolutionDamps(t *testing.T) {
	res, err := RunFT(16, 16, 16, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for i, e := range res.Energies {
		if e > prev*(1+1e-12) {
			t.Fatalf("energy grew at step %d: %v", i, res.Energies)
		}
		if e <= 0 {
			t.Fatalf("energy %d non-positive: %v", i, e)
		}
		prev = e
	}
}

func TestFTValidation(t *testing.T) {
	if _, err := RunFT(12, 16, 16, 1, nil); err == nil {
		t.Error("non-power-of-two dim accepted")
	}
	if _, err := RunFT(16, 16, 16, 0, nil); err == nil {
		t.Error("zero steps accepted")
	}
}

// --- linear algebra helpers ---

func TestMat5Invert(t *testing.T) {
	m := ident5(3).add(couplingMatrix())
	inv := m.invert()
	prod := m.mul(inv)
	id := ident5(1)
	for i := range prod {
		if math.Abs(prod[i]-id[i]) > 1e-12 {
			t.Fatalf("M * M^-1 != I at %d: %v", i, prod[i])
		}
	}
}

func TestMat5InvertSingularPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("singular invert did not panic")
		}
	}()
	var zero mat5
	zero.invert()
}

// blockTriSolve: multiply the solution back through the operator.
func TestBlockTriSolveProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%20) + 3
		rng := vclock.NewRNG(seed)
		op := newBTOperator(0.4)
		rhs := make([]float64, n*ncomp)
		for i := range rhs {
			rhs[i] = rng.Float64() - 0.5
		}
		orig := append([]float64(nil), rhs...)
		w := make([]mat5, n)
		blockTriSolve(op.a, op.b, op.c, rhs, w)
		// Verify A u = orig.
		var tmp [ncomp]float64
		for i := 0; i < n; i++ {
			var acc [ncomp]float64
			op.b.matvec(rhs[i*ncomp:(i+1)*ncomp], tmp[:])
			copy(acc[:], tmp[:])
			if i > 0 {
				op.a.matvec(rhs[(i-1)*ncomp:i*ncomp], tmp[:])
				for c := 0; c < ncomp; c++ {
					acc[c] += tmp[c]
				}
			}
			if i < n-1 {
				op.c.matvec(rhs[(i+1)*ncomp:(i+2)*ncomp], tmp[:])
				for c := 0; c < ncomp; c++ {
					acc[c] += tmp[c]
				}
			}
			for c := 0; c < ncomp; c++ {
				if math.Abs(acc[c]-orig[i*ncomp+c]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// pentaSolve: same check against the pentadiagonal operator.
func TestPentaSolveProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%40) + 5
		rng := vclock.NewRNG(seed)
		e2, e1, d, f1, f2 := 0.1, -0.8, 3.0, -0.7, 0.12
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.Float64() - 0.5
		}
		orig := append([]float64(nil), rhs...)
		pentaSolve(e2, e1, d, f1, f2, rhs, newPentaScratch(n))
		at := func(i int) float64 {
			if i < 0 || i >= n {
				return 0
			}
			return rhs[i]
		}
		for i := 0; i < n; i++ {
			got := e2*at(i-2) + e1*at(i-1) + d*at(i) + f1*at(i+1) + f2*at(i+2)
			if math.Abs(got-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// --- BT / SP / LU ---

func TestBTStableAndConverging(t *testing.T) {
	norms, err := RunBT(12, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	// ADI is unconditionally stable: the norm stays bounded, and the
	// late-time change per step shrinks as the field approaches steady
	// state.
	early := math.Abs(norms[1] - norms[0])
	late := math.Abs(norms[len(norms)-1] - norms[len(norms)-2])
	if late > early {
		t.Fatalf("BT not settling: early delta %v, late delta %v (%v)", early, late, norms)
	}
}

func TestBTParallelMatchesSerial(t *testing.T) {
	ser, err := RunBT(10, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunBT(10, 3, testTeam())
	if err != nil {
		t.Fatal(err)
	}
	for i := range ser {
		if math.Abs(ser[i]-par[i]) > 1e-12 {
			t.Fatalf("BT parallel differs at step %d: %v vs %v", i, par[i], ser[i])
		}
	}
}

func TestSPStableAndConverging(t *testing.T) {
	norms, err := RunSP(12, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	early := math.Abs(norms[1] - norms[0])
	late := math.Abs(norms[len(norms)-1] - norms[len(norms)-2])
	if late > early {
		t.Fatalf("SP not settling: %v", norms)
	}
}

func TestSPParallelMatchesSerial(t *testing.T) {
	ser, err := RunSP(10, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSP(10, 3, testTeam())
	if err != nil {
		t.Fatal(err)
	}
	for i := range ser {
		if math.Abs(ser[i]-par[i]) > 1e-12 {
			t.Fatalf("SP parallel differs at step %d", i)
		}
	}
}

func TestLUResidualDecreases(t *testing.T) {
	res, err := RunLU(10, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res); i++ {
		if res[i] >= res[i-1] {
			t.Fatalf("LU residual did not decrease at %d: %v", i, res)
		}
	}
	if res[len(res)-1] > res[0]/10 {
		t.Fatalf("LU converging too slowly: %v", res)
	}
}

func TestLUWavefrontMatchesSerial(t *testing.T) {
	ser, err := RunLU(8, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunLU(8, 3, testTeam())
	if err != nil {
		t.Fatal(err)
	}
	for i := range ser {
		if math.Abs(ser[i]-par[i]) > 1e-12 {
			t.Fatalf("LU wavefront parallel differs at %d: %v vs %v", i, par[i], ser[i])
		}
	}
}

func TestHyperplaneCellsCover(t *testing.T) {
	n := 5
	seen := map[[3]int]bool{}
	for p := 0; p <= 3*(n-1); p++ {
		for _, c := range hyperplaneCells(n, p) {
			if c[0]+c[1]+c[2] != p {
				t.Fatalf("cell %v not on plane %d", c, p)
			}
			if seen[c] {
				t.Fatalf("cell %v repeated", c)
			}
			seen[c] = true
		}
	}
	if len(seen) != n*n*n {
		t.Fatalf("hyperplanes cover %d cells, want %d", len(seen), n*n*n)
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := NewBT(2); err == nil {
		t.Error("tiny BT grid accepted")
	}
	if _, err := NewSP(3); err == nil {
		t.Error("tiny SP grid accepted")
	}
	if _, err := NewLU(1); err == nil {
		t.Error("tiny LU grid accepted")
	}
}

func TestField5Helpers(t *testing.T) {
	f := NewField5(4)
	f.FillRandom()
	g := f.Clone()
	if !slices.Equal(f.V, g.V) {
		t.Error("clone differs")
	}
	g.V[7] += 0.5
	if f.V[7] == g.V[7] {
		t.Error("clone shares storage")
	}
	if f.L2() <= 0 {
		t.Error("L2 of random field must be positive")
	}
}

// RunIS accepts a nil team and counts serially.
func TestISSerialTeam(t *testing.T) {
	keys := ISKeys(1<<10, 1<<6)
	ser, err := RunIS(keys, 1<<6, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunIS(keys, 1<<6, 3, testTeam())
	if err != nil {
		t.Fatal(err)
	}
	for i := range ser.Sorted {
		if ser.Sorted[i] != par.Sorted[i] {
			t.Fatalf("serial vs team sort differs at %d", i)
		}
	}
}
