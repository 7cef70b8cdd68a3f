package simfault

import (
	"math"
	"sort"

	"maia/internal/vclock"
)

// Fleet-scale sampling: deterministic draws of per-node conditions and
// of the virtual times of renewal processes (hard failures, repairs).
// Everything here is a pure function of (seed, identity coordinates),
// the same contract Plan.Attempts keeps for message drops — so a fleet
// simulation makes byte-identical decisions no matter how its pricing
// or experiment runs are parallelized.

// streamCondition is the stream tag of SampleCondition's draw. This file
// reserves the 100..199 band in EventSeed's second coordinate; callers
// deriving their own streams should stay clear of it.
const streamCondition = 101

// conditionWeights is the fleet condition distribution SampleCondition draws
// from, in per-mille: most nodes are healthy, the rest carry one of the
// single-cause catalog plans (the combined "degraded" plan is a
// worst-day scenario, not a steady-state population member).
var conditionWeights = []struct {
	name   string
	weight int
}{
	{"", 600}, // healthy
	{"phi-straggler", 120},
	{"lossy-pcie", 100},
	{"thermal-throttle", 100},
	{"phi0-down", 80},
}

// SampleConditions returns the degraded condition names SampleCondition can
// draw, sorted. "degraded" (the everything-at-once plan) is excluded by
// design.
func SampleConditions() []string {
	var names []string
	for _, c := range conditionWeights {
		if c.name != "" {
			names = append(names, c.name)
		}
	}
	sort.Strings(names)
	return names
}

// EventSeed derives an independent RNG seed from a base seed and three
// event-identity coordinates — the exported form of the per-message
// stream derivation Plan.Attempts uses. Two distinct coordinate triples
// yield independent streams; equal triples yield equal streams.
func EventSeed(seed uint64, a, b, c int) uint64 {
	s := seed
	s = mix64(s ^ uint64(a+1))
	s = mix64(s ^ uint64(b+1)<<20)
	s = mix64(s ^ uint64(c+1)<<40)
	return s
}

// SampleCondition draws the condition node `node` carries in the fleet
// rooted at seed: "" for a healthy node, otherwise the name of a
// catalog plan. The draw is a pure function of (seed, node).
func SampleCondition(seed uint64, node int) string {
	pick := Intn(seed, node, streamCondition, 0, 1000)
	for _, c := range conditionWeights {
		if pick < c.weight {
			return c.name
		}
		pick -= c.weight
	}
	return ""
}

// Uniform returns a deterministic draw in [0, 1) for the event identity
// (a, b, c) under seed.
func Uniform(seed uint64, a, b, c int) float64 {
	return vclock.NewRNG(EventSeed(seed, a, b, c)).Float64()
}

// Intn returns a deterministic draw in [0, n) for the event identity
// (a, b, c) under seed; n must be positive.
func Intn(seed uint64, a, b, c, n int) int {
	return vclock.NewRNG(EventSeed(seed, a, b, c)).Intn(n)
}

// Exp returns a deterministic exponential draw with the given mean for
// the event identity (a, b, c) under seed — the building block of the
// fleet's MTBF/MTTR renewal processes. A mean <= 0 returns 0.
func Exp(mean vclock.Time, seed uint64, a, b, c int) vclock.Time {
	if mean <= 0 {
		return 0
	}
	u := Uniform(seed, a, b, c)
	return vclock.Time(-float64(mean) * math.Log1p(-u))
}
