package simfault

import (
	"math"
	"testing"

	"maia/internal/vclock"
)

// TestSampleConditionDistribution checks the draw roughly follows the
// weight table over a large fleet: mostly healthy, every degraded
// condition represented.
func TestSampleConditionDistribution(t *testing.T) {
	const fleet = 2000
	counts := map[string]int{}
	for node := 0; node < fleet; node++ {
		counts[SampleCondition(1, node)]++
	}
	if h := counts[""]; h < fleet/2 || h > fleet*7/10 {
		t.Errorf("healthy fraction %d/%d outside [0.5, 0.7]", h, fleet)
	}
	for _, name := range SampleConditions() {
		if counts[name] == 0 {
			t.Errorf("condition %q never drawn over %d nodes", name, fleet)
		}
	}
}

// TestExpDraws pins the exponential draws: deterministic, positive,
// mean-scaling, and roughly the right magnitude.
func TestExpDraws(t *testing.T) {
	const mean = 100 * vclock.Second
	var sum vclock.Time
	const n = 4000
	for k := 0; k < n; k++ {
		d := Exp(mean, 3, 0, 3, k)
		if d != Exp(mean, 3, 0, 3, k) {
			t.Fatalf("draw %d not deterministic", k)
		}
		if d <= 0 || math.IsInf(float64(d), 0) {
			t.Fatalf("draw %d = %v out of range", k, d)
		}
		if got, want := Exp(2*mean, 3, 0, 3, k), 2*d; math.Abs(float64(got-want)) > 1e-9*math.Abs(float64(want)) {
			t.Fatalf("draw %d does not scale with the mean: %v vs %v", k, got, want)
		}
		sum += d
	}
	avg := sum / n
	if avg < mean/2 || avg > mean*2 {
		t.Errorf("empirical mean %v far from %v over %d draws", avg, mean, n)
	}
	if Exp(0, 1, 0, 0, 0) != 0 {
		t.Errorf("zero mean must draw 0")
	}
}

// TestEventSeedIndependence spot-checks that distinct coordinate triples
// yield distinct streams.
func TestEventSeedIndependence(t *testing.T) {
	seen := map[uint64]bool{}
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			for c := 0; c < 8; c++ {
				s := EventSeed(9, a, b, c)
				if seen[s] {
					t.Fatalf("seed collision at (%d,%d,%d)", a, b, c)
				}
				seen[s] = true
			}
		}
	}
}

// TestIntnMatchesKeyedRNG pins Intn to the expression the fleet's class,
// placement and condition draws spelled out before it existed, so
// routing them through Intn leaves every draw unchanged.
func TestIntnMatchesKeyedRNG(t *testing.T) {
	for _, seed := range []uint64{1, 7, 1 << 40} {
		for a := 0; a < 40; a++ {
			for _, b := range []int{1, 2, 5, 101} {
				for _, n := range []int{1, 3, 7, 64, 512, 1000} {
					got := Intn(seed, a, b, a%3, n)
					want := vclock.NewRNG(EventSeed(seed, a, b, a%3)).Intn(n)
					if got != want {
						t.Fatalf("Intn(%d, %d, %d, %d, %d) = %d, want %d", seed, a, b, a%3, n, got, want)
					}
				}
			}
		}
	}
}
