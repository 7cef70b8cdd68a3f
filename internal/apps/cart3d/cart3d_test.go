package cart3d

import (
	"math"
	"testing"
	"testing/quick"

	"maia/internal/core"
	"maia/internal/machine"
	"maia/internal/simomp"
)

func team() *simomp.Team {
	return simomp.NewTeam(simomp.New(machine.HostCoresPartition(machine.NewNode(), 8, 1)))
}

func TestFreeStreamPreservation(t *testing.T) {
	s, err := NewSolver(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), s.U...)
	for i := 0; i < 5; i++ {
		s.Step(s.StableDt(0.5), nil)
	}
	for i := range s.U {
		if math.Abs(s.U[i]-before[i]) > 1e-12 {
			t.Fatalf("free stream not preserved at %d: %v -> %v", i, before[i], s.U[i])
		}
	}
}

// Conservation: periodic box conserves mass, momentum and energy to
// machine precision while a pulse evolves.
func TestConservation(t *testing.T) {
	s, err := NewSolver(12, 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	s.AddPressurePulse(0.1)
	before := s.Totals()
	for i := 0; i < 10; i++ {
		s.Step(s.StableDt(0.4), nil)
	}
	after := s.Totals()
	for q := range before {
		if math.Abs(after[q]-before[q]) > 1e-9*math.Max(1, math.Abs(before[q])) {
			t.Fatalf("component %d not conserved: %v -> %v", q, before[q], after[q])
		}
	}
}

// Positivity: a modest pulse keeps density and pressure positive.
func TestPositivity(t *testing.T) {
	s, _ := NewSolver(12, 12, 12)
	s.AddPressurePulse(0.2)
	for i := 0; i < 20; i++ {
		s.Step(s.StableDt(0.4), nil)
	}
	for c := 0; c < s.Nx*s.Ny*s.Nz; c++ {
		if rho, _, _, _, p := s.Primitive(c); rho <= 0 || p <= 0 {
			t.Fatalf("positivity lost at cell %d: rho=%v p=%v", c, rho, p)
		}
	}
}

// The pulse actually moves: the solution changes, so the solver is not
// a no-op.
func TestPulseEvolves(t *testing.T) {
	s, _ := NewSolver(12, 12, 12)
	s.AddPressurePulse(0.1)
	before := append([]float64(nil), s.U...)
	s.Step(s.StableDt(0.4), nil)
	diff := 0.0
	for i := range s.U {
		diff += math.Abs(s.U[i] - before[i])
	}
	if diff < 1e-6 {
		t.Fatal("solution did not evolve")
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	mk := func() *Solver {
		s, _ := NewSolver(10, 10, 10)
		s.AddPressurePulse(0.1)
		return s
	}
	ser, par := mk(), mk()
	dt := ser.StableDt(0.4)
	tm := team()
	for i := 0; i < 5; i++ {
		ser.Step(dt, nil)
		par.Step(dt, tm)
	}
	for i := range ser.U {
		if ser.U[i] != par.U[i] {
			t.Fatalf("parallel differs at %d: %v vs %v", i, par.U[i], ser.U[i])
		}
	}
}

// Property: conservation holds for random pulse amplitudes and mesh
// shapes.
func TestConservationProperty(t *testing.T) {
	f := func(ampRaw, dims uint8) bool {
		amp := 0.05 + float64(ampRaw%40)/200
		nx := 6 + int(dims%3)*2
		s, err := NewSolver(nx, 8, 6)
		if err != nil {
			return false
		}
		s.AddPressurePulse(amp)
		before := s.Totals()
		for i := 0; i < 3; i++ {
			s.Step(s.StableDt(0.4), nil)
		}
		after := s.Totals()
		for q := range before {
			if math.Abs(after[q]-before[q]) > 1e-9*math.Max(1, math.Abs(before[q])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestSolverValidation(t *testing.T) {
	if _, err := NewSolver(2, 8, 8); err == nil {
		t.Fatal("tiny mesh accepted")
	}
}

// Figure 21 shape: host ~2x the best Phi result; Phi best at 4
// threads/core; performance increases with threads per core.
func TestFig21Shape(t *testing.T) {
	m := core.DefaultModel()
	host, phi := Fig21(m, machine.NewNode())
	best := Best(phi)
	ratio := host.Gflops / best.Gflops
	if ratio < 1.4 || ratio > 2.6 {
		t.Errorf("host/bestPhi = %.2f, want ~2 (paper: host twice the best Phi)", ratio)
	}
	if best.Partition.ThreadsPerCore != 4 {
		t.Errorf("best Phi at %d threads/core, want 4", best.Partition.ThreadsPerCore)
	}
	for i := 1; i < len(phi); i++ {
		if phi[i].Gflops <= phi[i-1].Gflops {
			t.Errorf("Phi Gflops not increasing with threads: %v", phi)
		}
	}
	if err := OneraM6Workload().Validate(); err != nil {
		t.Fatal(err)
	}
}
