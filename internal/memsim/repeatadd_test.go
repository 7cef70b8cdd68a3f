package memsim

import (
	"math"
	"math/rand"
	"testing"

	"maia/internal/vclock"
)

// addLoop is the per-access sum repeatAdd replaces.
func addLoop(t, c vclock.Time, k int) vclock.Time {
	for ; k > 0; k-- {
		t += c
	}
	return t
}

// ulpOf is the spacing of the float64s in t's binade.
func ulpOf(t vclock.Time) vclock.Time {
	return vclock.Time(math.Nextafter(float64(t), math.Inf(1))) - t
}

// TestRepeatAddMatchesLoop is a randomized differential of the closed-form
// sum against the plain loop: from zero and random starts, over random
// increments and counts up to 2^20, exact ties (c an odd multiple of
// half an ulp of t0), stagnating increments (c below half an ulp), and
// sums that cross many binades.
func TestRepeatAddMatchesLoop(t *testing.T) {
	type tc struct {
		t0, c vclock.Time
		k     int
	}
	cases := []tc{
		// ≈51.4 ns and 51.5 ns: c is a tie in the binade the tenth step
		// crosses into, so the eleventh step's increment depends on where
		// the crossing landed and only the twelfth's is the steady one.
		{0, 0x1.b985cb99310f8p-25, 12},
		{0, 51.5 * vclock.Nanosecond, 12},
		{0, 1.5 * vclock.Nanosecond, 1 << 20},
		{1, 0x1p-53, 5},           // c = ulp/2 from an even t0: stagnates at once
		{1 + 0x1p-52, 0x1p-53, 5}, // from an odd t0: one step to even, then stagnates
		{0, 0, 9},
		{3, 5, 0},
	}
	rng := rand.New(rand.NewSource(36))
	randT0 := func() vclock.Time {
		if rng.Intn(4) == 0 {
			return 0
		}
		return vclock.Time(math.Ldexp(1+rng.Float64(), -40+rng.Intn(50)))
	}
	randK := func() int { return rng.Intn(1 << (1 + rng.Intn(20))) }
	for i := 0; i < 300; i++ {
		// Random increments, from 2^-30 below t0's scale to 2^20 above it.
		t0 := randT0()
		scale := t0
		if scale == 0 {
			scale = vclock.Nanosecond
		}
		c := scale * vclock.Time(math.Ldexp(1+rng.Float64(), -30+rng.Intn(50)))
		cases = append(cases, tc{t0, c, randK()})

		// Exact ties c = (n+½)·ulp(t0), n = 0 included, from t0 > 0.
		t0 = vclock.Time(math.Ldexp(1+rng.Float64(), -40+rng.Intn(50)))
		n := []int{0, 1, 2, 3, rng.Intn(1 << 10), rng.Intn(1 << 40)}[rng.Intn(6)]
		cases = append(cases, tc{t0, (vclock.Time(n) + 0.5) * ulpOf(t0), randK()})

		// Stagnation: c strictly below half an ulp of t0.
		cases = append(cases, tc{t0, ulpOf(t0) * vclock.Time(0.5*rng.Float64()), randK()})

		// Many binade crossings: small steps summed far past t0's binade.
		cases = append(cases, tc{0, vclock.Time(math.Ldexp(1+rng.Float64(), -35+rng.Intn(10))), 1<<16 + rng.Intn(1<<20)})
	}
	for _, x := range cases {
		want := addLoop(x.t0, x.c, x.k)
		if got := repeatAdd(x.t0, x.c, x.k); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("repeatAdd(%x, %x, %d) = %x, loop %x", float64(x.t0), float64(x.c), x.k, float64(got), float64(want))
		}
	}
}
