package overflow

import (
	"math"
	"testing"
	"testing/quick"

	"maia/internal/core"
	"maia/internal/machine"
	"maia/internal/pcie"
	"maia/internal/simfault"
	"maia/internal/simmpi"
	"maia/internal/simomp"
	"maia/internal/vclock"
)

func team() *simomp.Team {
	return simomp.NewTeam(simomp.New(machine.HostCoresPartition(machine.NewNode(), 8, 1)))
}

// --- datasets & decomposition ---

func TestDatasets(t *testing.T) {
	large, medium := DLRF6Large(), DLRF6Medium()
	if large.TotalPoints() != 35_900_000 {
		t.Errorf("DLRF6-Large = %d points, want 35.9M", large.TotalPoints())
	}
	if medium.TotalPoints() != 10_800_000 {
		t.Errorf("DLRF6-Medium = %d points, want 10.8M", medium.TotalPoints())
	}
	if len(large.Zones) != 23 {
		t.Errorf("DLRF6-Large has %d zones, want 23", len(large.Zones))
	}
	// Deterministic.
	again := DLRF6Large()
	for i := range again.Zones {
		if again.Zones[i] != large.Zones[i] {
			t.Fatal("dataset synthesis not deterministic")
		}
	}
}

// Decompose conserves points and respects speeds.
func TestDecomposeConservesPoints(t *testing.T) {
	d := DLRF6Medium()
	for _, ranks := range []int{1, 2, 7, 16, 32} {
		speeds := make([]float64, ranks)
		for i := range speeds {
			speeds[i] = 1
		}
		a, err := Decompose(d, speeds)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, pieces := range a {
			total += Load(pieces)
		}
		if total != d.TotalPoints() {
			t.Fatalf("%d ranks: decomposition moved %d of %d points", ranks, total, d.TotalPoints())
		}
	}
}

func TestDecomposeBalanced(t *testing.T) {
	d := DLRF6Medium()
	speeds := make([]float64, 16)
	for i := range speeds {
		speeds[i] = 1
	}
	a, err := Decompose(d, speeds)
	if err != nil {
		t.Fatal(err)
	}
	// Imbalance is max(load/speed) over mean(load/speed); 1 is perfect.
	maxT, sumT := 0.0, 0.0
	for i, pieces := range a {
		rankT := float64(Load(pieces)) / speeds[i]
		sumT += rankT
		maxT = math.Max(maxT, rankT)
	}
	if imb := maxT / (sumT / float64(len(a))); imb > 1.15 {
		t.Errorf("equal-speed imbalance = %.3f, want <= 1.15", imb)
	}
}

// Weighted decomposition loads fast ranks more.
func TestDecomposeWeighted(t *testing.T) {
	d := DLRF6Large()
	speeds := []float64{1, 1, 3, 3}
	a, err := Decompose(d, speeds)
	if err != nil {
		t.Fatal(err)
	}
	slow := Load(a[0]) + Load(a[1])
	fast := Load(a[2]) + Load(a[3])
	if fast < 2*slow {
		t.Errorf("fast ranks got %d, slow %d; want ~3x", fast, slow)
	}
}

func TestDecomposeErrors(t *testing.T) {
	if _, err := Decompose(DLRF6Medium(), nil); err == nil {
		t.Error("no ranks accepted")
	}
	if _, err := Decompose(DLRF6Medium(), []float64{1, 0}); err == nil {
		t.Error("zero speed accepted")
	}
}

// Property: decomposition conserves points for random speed vectors.
func TestDecomposeProperty(t *testing.T) {
	d := DLRF6Medium()
	f := func(seed uint64, rRaw uint8) bool {
		ranks := int(rRaw%12) + 1
		rng := vclock.NewRNG(seed)
		speeds := make([]float64, ranks)
		for i := range speeds {
			speeds[i] = 0.2 + rng.Float64()
		}
		a, err := Decompose(d, speeds)
		if err != nil {
			return false
		}
		var total int64
		for _, pieces := range a {
			total += Load(pieces)
			for _, p := range pieces {
				if p.Points <= 0 {
					return false
				}
			}
		}
		return total == d.TotalPoints()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// --- the real solver ---

func TestSolverApproachesSteadyState(t *testing.T) {
	s, err := NewSolver([]int{10, 8, 12}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var deltas []float64
	for i := 0; i < 10; i++ {
		before := s.Norm()
		s.Step(nil)
		deltas = append(deltas, math.Abs(s.Norm()-before))
	}
	if deltas[len(deltas)-1] >= deltas[0] {
		t.Fatalf("not settling: %v", deltas)
	}
	if s.Norm() <= 0 {
		t.Fatal("forced solution should be nonzero")
	}
}

func TestSolverParallelMatchesSerial(t *testing.T) {
	mk := func() *Solver {
		s, err := NewSolver([]int{8, 10}, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ser, par := mk(), mk()
	tm := team()
	for i := 0; i < 4; i++ {
		ser.Step(nil)
		par.Step(tm)
	}
	for z := range ser.Zones {
		for i := range ser.Zones[z].V {
			if ser.Zones[z].V[i] != par.Zones[z].V[i] {
				t.Fatalf("zone %d differs at %d", z, i)
			}
		}
	}
}

// The MPI program produces exactly the serial per-zone sums, for any
// rank count.
func TestSolverMPIMatchesSerial(t *testing.T) {
	sizes := []int{8, 10, 6, 12, 8}
	const steps = 3
	ref, err := RunMPI(sizes, 0.05, steps, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{2, 3, 5} {
		got, err := RunMPI(sizes, 0.05, steps, ranks)
		if err != nil {
			t.Fatal(err)
		}
		for z := range ref {
			if math.Abs(got[z]-ref[z]) > 1e-12*math.Max(1, math.Abs(ref[z])) {
				t.Fatalf("%d ranks: zone %d sum %v != serial %v", ranks, z, got[z], ref[z])
			}
		}
	}
}

// Zones of different sizes couple: ghost interpolation samples the donor.
func TestGhostInterpolationAcrossResolutions(t *testing.T) {
	a, b := NewZoneGrid(4), NewZoneGrid(8)
	// Paint a's last interior plane with a recognizable value.
	for j := 0; j < 4; j++ {
		for k := 0; k < 4; k++ {
			a.V[a.Idx(4, j, k)] = float64(10 + j)
		}
	}
	plane := make([]float64, 16)
	a.BoundaryPlane(true, plane)
	b.SetGhostPlane(false, plane, 4)
	for j := 0; j < 8; j++ {
		want := float64(10 + j*4/8)
		if got := b.V[b.Idx(0, j, 3)]; got != want {
			t.Fatalf("ghost (0,%d,3) = %v, want %v", j, got, want)
		}
	}
}

func TestSolverValidation(t *testing.T) {
	if _, err := NewSolver(nil, 0.1); err == nil {
		t.Error("no zones accepted")
	}
	if _, err := NewSolver([]int{2}, 0.1); err == nil {
		t.Error("tiny zone accepted")
	}
	if _, err := RunMPI([]int{8}, 0.1, 1, 2); err == nil {
		t.Error("more ranks than zones accepted")
	}
}

func TestTridiagSolves(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 3
		rng := vclock.NewRNG(seed)
		lam := 0.3 + rng.Float64()
		r := make([]float64, n)
		for i := range r {
			r[i] = rng.Float64() - 0.5
		}
		orig := append([]float64(nil), r...)
		tridiag(lam, r, make([]float64, n))
		at := func(i int) float64 {
			if i < 0 || i >= n {
				return 0
			}
			return r[i]
		}
		for i := 0; i < n; i++ {
			got := (1+2*lam)*at(i) - lam*at(i-1) - lam*at(i+1)
			if math.Abs(got-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- Figure 22 ---

func TestFig22HostOrdering(t *testing.T) {
	m := core.DefaultModel()
	host, _, err := Fig22(m, machine.NewNode())
	if err != nil {
		t.Fatal(err)
	}
	combos := HostCombos()
	// Paper: best at 16x1, monotonically worse as OpenMP threads grow,
	// worst at 1x16.
	for i := 1; i < len(combos); i++ {
		if host[combos[i]] < host[combos[i-1]] {
			t.Errorf("host %v (%v) should not beat %v (%v)",
				combos[i], host[combos[i]], combos[i-1], host[combos[i-1]])
		}
	}
	if host[Combo{1, 16}].Seconds() < 1.3*host[Combo{16, 1}].Seconds() {
		t.Errorf("1x16 should clearly trail 16x1: %v vs %v",
			host[Combo{1, 16}], host[Combo{16, 1}])
	}
}

func TestFig22PhiOrdering(t *testing.T) {
	m := core.DefaultModel()
	_, phi, err := Fig22(m, machine.NewNode())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: on the Phi, performance improves as thread count grows;
	// worst at 4x14 (56 threads), best at 8x28 (224 threads).
	if !(phi[Combo{8, 28}] < phi[Combo{8, 14}] && phi[Combo{8, 14}] < phi[Combo{4, 14}]) {
		t.Errorf("phi ordering wrong: 8x28 %v, 8x14 %v, 4x14 %v",
			phi[Combo{8, 28}], phi[Combo{8, 14}], phi[Combo{4, 14}])
	}
}

func TestFig22HostPhiRatio(t *testing.T) {
	m := core.DefaultModel()
	host, phi, err := Fig22(m, machine.NewNode())
	if err != nil {
		t.Fatal(err)
	}
	bestHost, bestPhi := vclock.Time(math.Inf(1)), vclock.Time(math.Inf(1))
	for _, v := range host {
		bestHost = vclock.Min(bestHost, v)
	}
	for _, v := range phi {
		bestPhi = vclock.Min(bestPhi, v)
	}
	ratio := bestPhi.Seconds() / bestHost.Seconds()
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("bestPhi/bestHost = %.2f, want ~1.8 (paper)", ratio)
	}
}

// --- Figure 23 ---

func TestFig23SymmetricSpeedup(t *testing.T) {
	m := core.DefaultModel()
	node := machine.NewNode()
	hostOnly, err := HostOnlyStepTime(m, node)
	if err != nil {
		t.Fatal(err)
	}
	best := vclock.Time(math.Inf(1))
	for _, pc := range []Combo{{4, 14}, {8, 14}, {4, 28}, {8, 28}} {
		tt, err := SymmetricStepTime(m, node, SymmetricConfig{
			HostCombo: Combo{16, 1}, PhiCombo: pc, Software: pcie.PostUpdate})
		if err != nil {
			t.Fatal(err)
		}
		best = vclock.Min(best, tt)
	}
	speedup := hostOnly.Seconds() / best.Seconds()
	if speedup < 1.4 || speedup > 2.2 {
		t.Errorf("symmetric speedup vs host-only = %.2f, want ~1.9 (paper)", speedup)
	}
	// ...but symmetric stays behind two plain hosts (Section 6.9.1.3).
	twoHosts, err := TwoHostsStepTime(m, node)
	if err != nil {
		t.Fatal(err)
	}
	if best.Seconds() <= twoHosts.Seconds() {
		t.Errorf("symmetric (%v) should remain behind two hosts (%v)", best, twoHosts)
	}
}

func TestFig23PostUpdateGains(t *testing.T) {
	m := core.DefaultModel()
	node := machine.NewNode()
	maxGain := 0.0
	for _, pc := range []Combo{{4, 14}, {8, 14}, {4, 28}, {8, 28}} {
		pre, err := SymmetricStepTime(m, node, SymmetricConfig{
			HostCombo: Combo{16, 1}, PhiCombo: pc, Software: pcie.PreUpdate})
		if err != nil {
			t.Fatal(err)
		}
		post, err := SymmetricStepTime(m, node, SymmetricConfig{
			HostCombo: Combo{16, 1}, PhiCombo: pc, Software: pcie.PostUpdate})
		if err != nil {
			t.Fatal(err)
		}
		gain := pre.Seconds()/post.Seconds() - 1
		if gain < -0.001 {
			t.Errorf("phi=%v: post-update slower than pre (%.2f%%)", pc, gain*100)
		}
		if gain > maxGain {
			maxGain = gain
		}
	}
	if maxGain < 0.02 {
		t.Errorf("max post-update gain = %.1f%%, want >= 2%% (paper: 2-28%%)", maxGain*100)
	}
	// The worst symmetric choice is 4x14 (fewest Phi threads).
	worst, err := SymmetricStepTime(m, node, SymmetricConfig{
		HostCombo: Combo{16, 1}, PhiCombo: Combo{4, 14}, Software: pcie.PostUpdate})
	if err != nil {
		t.Fatal(err)
	}
	best, err := SymmetricStepTime(m, node, SymmetricConfig{
		HostCombo: Combo{16, 1}, PhiCombo: Combo{8, 28}, Software: pcie.PostUpdate})
	if err != nil {
		t.Fatal(err)
	}
	if worst <= best {
		t.Errorf("4x14 (%v) should trail 8x28 (%v)", worst, best)
	}
}

func TestComboString(t *testing.T) {
	if (Combo{8, 28}).String() != "8x28" {
		t.Error("Combo.String wrong")
	}
}

// The MPInside-style profile quantifies Section 6.9.1.3: symmetric runs
// carry real compute imbalance and a visible MPI share.
func TestSymmetricProfileShowsImbalance(t *testing.T) {
	m := core.DefaultModel()
	tt, prof, err := SymmetricStepProfile(m, machine.NewNode(), SymmetricConfig{
		HostCombo: Combo{Ranks: 16, Threads: 1},
		PhiCombo:  Combo{Ranks: 8, Threads: 28},
		Software:  pcie.PostUpdate,
	})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Ranks != 32 {
		t.Fatalf("profile ranks = %d, want 32", prof.Ranks)
	}
	if prof.ComputeBalance < 1.1 {
		t.Errorf("compute balance = %.2f, want visible imbalance (> 1.1)", prof.ComputeBalance)
	}
	if prof.MeanMPI <= 0 {
		t.Error("no MPI time recorded")
	}
	if prof.MaxTotal > tt {
		t.Errorf("profile makespan %v exceeds reported step time %v", prof.MaxTotal, tt)
	}
}

// Hybrid MPI+OpenMP execution and symmetric (host+Phi) placement both
// reproduce the serial fingerprint bitwise: placement changes timing,
// never results.
func TestRunHybridPlacementIndependent(t *testing.T) {
	sizes := []int{8, 10, 6, 12}
	const steps = 3
	ref, err := RunMPI(sizes, 0.05, steps, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Hybrid: 2 ranks x 4 OpenMP threads.
	hybrid, err := RunHybrid(sizes, 0.05, steps, simmpi.HostPlacement(2, 1), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric: one host rank, one rank on each Phi.
	locs := []simmpi.Location{
		{Device: machine.Host, ThreadsPerCore: 1},
		{Device: machine.Phi0, ThreadsPerCore: 2},
		{Device: machine.Phi1, ThreadsPerCore: 2},
	}
	sym, err := RunHybrid(sizes, 0.05, steps, locs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for z := range ref {
		if hybrid[z] != ref[z] {
			t.Fatalf("hybrid zone %d sum %v != serial %v", z, hybrid[z], ref[z])
		}
		if sym[z] != ref[z] {
			t.Fatalf("symmetric zone %d sum %v != serial %v", z, sym[z], ref[z])
		}
	}
	if _, err := RunHybrid(sizes, 0.05, 1, nil, 0); err == nil {
		t.Error("empty placement accepted")
	}
}

// The dynamic rebalancer sheds load from a degraded device: under a Phi
// straggler plan the rebalanced step beats the static decomposition,
// and the whole procedure is deterministic.
func TestSymmetricRebalanceUnderStraggler(t *testing.T) {
	m := core.DefaultModel()
	node := machine.NewNode()
	cfg := SymmetricConfig{
		HostCombo: Combo{16, 1},
		PhiCombo:  Combo{8, 28},
		Software:  pcie.PostUpdate,
		Faults:    simfault.PhiStraggler(),
	}
	static, rebalanced, err := SymmetricStepRebalanced(m, node, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rebalanced >= static {
		t.Errorf("rebalance did not help under straggler: %v >= %v", rebalanced, static)
	}
	s2, r2, err := SymmetricStepRebalanced(m, node, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s2 != static || r2 != rebalanced {
		t.Errorf("rebalance not deterministic: %v/%v vs %v/%v", s2, r2, static, rebalanced)
	}

	// The faulted static step is slower than the healthy static step.
	healthyCfg := cfg
	healthyCfg.Faults = nil
	healthy, err := SymmetricStepTime(m, node, healthyCfg)
	if err != nil {
		t.Fatal(err)
	}
	if static <= healthy {
		t.Errorf("straggler plan did not slow the static step: %v <= %v", static, healthy)
	}
}

// On the healthy machine the rebalancer corrects the balancer's Phi
// bias, so it never makes the step worse.
func TestSymmetricRebalanceHealthyNoWorse(t *testing.T) {
	m := core.DefaultModel()
	node := machine.NewNode()
	static, rebalanced, err := SymmetricStepRebalanced(m, node, SymmetricConfig{
		HostCombo: Combo{16, 1}, PhiCombo: Combo{8, 28}, Software: pcie.PostUpdate})
	if err != nil {
		t.Fatal(err)
	}
	if rebalanced > static {
		t.Errorf("healthy rebalance made the step worse: %v > %v", rebalanced, static)
	}
}
