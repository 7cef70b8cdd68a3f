package npb

import "math"

// Field5 is a 5-component field on an n³ grid (no ghost cells; boundary
// values are implicitly zero), the state the three pseudo-applications
// evolve.
type Field5 struct {
	N int
	V []float64
}

// NewField5 allocates a zero field.
func NewField5(n int) *Field5 {
	return &Field5{N: n, V: make([]float64, n*n*n*ncomp)}
}

// Idx returns the flat offset of cell (i,j,k)'s first component.
func (f *Field5) Idx(i, j, k int) int {
	return ((i*f.N+j)*f.N + k) * ncomp
}

// line returns where grid line (p, q) along dim lies in V: cell c of
// the line starts at base + c*stride. Along dim 0 the line is (c, p, q),
// along dim 1 (p, c, q) and along dim 2 (p, q, c).
func (f *Field5) line(dim, p, q int) (base, stride int) {
	switch dim {
	case 0:
		return f.Idx(0, p, q), f.N * f.N * ncomp
	case 1:
		return f.Idx(p, 0, q), f.N * ncomp
	}
	return f.Idx(p, q, 0), ncomp
}

// FillRandom initializes the field from the RANDLC stream (values in
// [-0.5, 0.5)).
func (f *Field5) FillRandom() {
	seed := DefaultSeed
	for i := range f.V {
		f.V[i] = Randlc(&seed, MultA) - 0.5
	}
}

// L2 returns the component-summed RMS norm.
func (f *Field5) L2() float64 {
	s := 0.0
	for _, v := range f.V {
		s += v * v
	}
	return math.Sqrt(s / float64(len(f.V)))
}

// Clone returns a deep copy.
func (f *Field5) Clone() *Field5 {
	g := NewField5(f.N)
	copy(g.V, f.V)
	return g
}

// couplingMatrix is the fixed 5x5 inter-component coupling used by all
// three pseudo-applications: a stand-in for the Navier-Stokes flux
// Jacobian structure (nonsymmetric, zero row sums are NOT required, but
// it is small enough to keep the implicit operators diagonally
// dominant).
func couplingMatrix() mat5 {
	return mat5{
		0.00, 0.10, 0.00, 0.00, 0.00,
		0.05, 0.00, 0.10, 0.00, 0.02,
		0.00, 0.05, 0.00, 0.10, 0.00,
		0.02, 0.00, 0.05, 0.00, 0.10,
		0.00, 0.02, 0.00, 0.05, 0.00,
	}
}
