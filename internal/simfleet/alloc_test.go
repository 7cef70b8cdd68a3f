package simfleet

import (
	"testing"

	"maia/internal/vclock"
)

// Allocation-regression guards for the fleet event loop. The loop
// allocates O(1) per RUN — the heap, queue, wait sample, and node states
// are reused with the whole run state — so a run's malloc count is a
// small constant, far below its event count, and must not scale with
// the simulated horizon.

// maxRunAllocs is the allocation budget of one fleet run after a
// warm-up run: the count BenchmarkRun reports at every policy and fleet
// size.
const maxRunAllocs = 4

// allocConfig is the guarded workload: remediation on, sampled
// conditions, hard failures striking, every event kind live.
func allocConfig(tab *PriceTable, d vclock.Time) Config {
	return Config{
		Nodes:     64,
		Duration:  d,
		Profile:   "erratic",
		Remediate: true,
		Prices:    tab,
	}
}

// runEvents approximates the number of events a run processed from its
// stats: arrivals, completions, health-check ticks, failures, repairs.
func runEvents(st Stats, cfg Config, healthEvery vclock.Time) int {
	checks := int(float64(cfg.Duration) / float64(healthEvery))
	return st.Arrivals + st.Completed + st.HardFailures + st.Repaired + st.Replaced + checks
}

// TestRunAllocsFarBelowEvents pins the per-run allocation bound: after
// one warm-up run (which sizes the reused run state), a full fleet run
// of over a thousand events must allocate at most maxRunAllocs times.
func TestRunAllocsFarBelowEvents(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; bound asserted in normal builds")
	}
	cfg := allocConfig(mustTable(t), 600*vclock.Second)
	st, err := Run(cfg) // warm-up: size the reused run state
	if err != nil {
		t.Fatal(err)
	}
	events := runEvents(st, cfg, DefaultHealthEvery)
	if events < 1000 {
		t.Fatalf("workload too small to be meaningful: %d events", events)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxRunAllocs {
		t.Errorf("fleet run allocated %.0f times over %d events; want <= %d per run",
			allocs, events, maxRunAllocs)
	}
}

// TestRunAllocsIndependentOfDuration pins that allocations do not scale
// with the horizon: simulating 8x the virtual time processes ~8x the
// events but must stay within a small constant factor of the short
// run's allocations (growth of the reused wait sample, not per-event
// cost).
func TestRunAllocsIndependentOfDuration(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; bound asserted in normal builds")
	}
	tab := mustTable(t)
	measure := func(d vclock.Time) float64 {
		cfg := allocConfig(tab, d)
		if _, err := Run(cfg); err != nil { // size the reused run state
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := measure(600 * vclock.Second)
	long := measure(8 * 600 * vclock.Second)
	if long > 2*short+64 {
		t.Errorf("allocations scaled with the horizon: %.0f at 600s, %.0f at 4800s", short, long)
	}
}
