package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMinMaxMean(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if Min(xs) != 1 || Max(xs) != 5 {
		t.Fatal("Min/Max wrong")
	}
}

// mean is the arithmetic mean, the upper bound of GeoMean.
func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Fatalf("GeoMean = %v", g)
	}
	if !math.IsNaN(GeoMean([]float64{1, -1})) {
		t.Fatal("negative input must yield NaN")
	}
}

func TestEmptyPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Min":     func() { Min(nil) },
		"Max":     func() { Max(nil) },
		"GeoMean": func() { GeoMean(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(nil) did not panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: Min <= GeoMean <= Mean <= Max for positive inputs.
func TestMeanOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) + 1
		}
		g := GeoMean(xs)
		return Min(xs) <= g+1e-9 && g <= mean(xs)+1e-9 && mean(xs) <= Max(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
