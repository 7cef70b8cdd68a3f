package npb

import (
	"os"
	"testing"

	"maia/internal/machine"
	"maia/internal/simmpi"
	"maia/internal/vclock"
)

// TestIterationReplayMatchesGoroutine is the Figure 20 exactness
// property: for every benchmark's per-iteration script, across the rank
// counts the figure sweeps (including BT/SP's odd perfect squares and
// LU's wavefront) and both device placements, the closed-form replay
// (RepeatSeq) must reproduce the goroutine engine (RunSeq) BIT for bit.
func TestIterationReplayMatchesGoroutine(t *testing.T) {
	noFast := os.Getenv("MAIA_NO_FASTPATH") != ""
	rankSets := []int{2, 4, 9, 16, 25, 64}
	classes := []Class{ClassS, ClassA}
	for _, b := range allBenchmarks {
		for _, c := range classes {
			s, err := SizeOf(b, c)
			if err != nil {
				t.Fatalf("%v.%v: %v", b, c, err)
			}
			for _, ranks := range rankSets {
				if !ValidRankCount(b, ranks) {
					continue
				}
				for _, phi := range []bool{false, true} {
					cfg := simmpi.Config{SizeOnlyPayloads: true}
					if phi {
						cfg.Ranks = simmpi.PhiPlacement(machine.Phi0, ranks, 2)
					} else {
						cfg.Ranks = simmpi.HostPlacement(ranks, 1)
					}
					compute := vclock.Time(float64(ranks)*137.5 + 9e3)
					steps := iterationSeq(b, s, ranks, compute)

					slow, err := simmpi.NewWorld(cfg)
					if err != nil {
						t.Fatalf("%v.%v/%d: %v", b, c, ranks, err)
					}
					if err := slow.RunSeq(steps, 1); err != nil {
						t.Fatalf("%v.%v/%d: goroutine run: %v", b, c, ranks, err)
					}
					want := slow.MaxTime()

					fast, err := simmpi.NewWorld(cfg)
					if err != nil {
						t.Fatalf("%v.%v/%d: %v", b, c, ranks, err)
					}
					got, ok := fast.RepeatSeq(steps, 1)
					if !ok {
						if noFast {
							continue // replay correctly refused
						}
						t.Fatalf("%v.%v/%d ranks (phi=%v): replay refused a homogeneous world", b, c, ranks, phi)
					}
					if got != want {
						t.Fatalf("%v.%v/%d ranks (phi=%v): replay %v, goroutine %v", b, c, ranks, phi, got, want)
					}
				}
			}
		}
	}
}

// TestIterationReplayRefusesSingleRank pins that single-rank worlds
// (no symmetry to exploit, nothing to win) take the goroutine engine,
// where LU's wavefront degenerates to its compute.
func TestIterationReplayRefusesSingleRank(t *testing.T) {
	s, err := SizeOf(LU, ClassS)
	if err != nil {
		t.Fatal(err)
	}
	w, err := simmpi.NewWorld(simmpi.Config{SizeOnlyPayloads: true, Ranks: simmpi.HostPlacement(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	steps := iterationSeq(LU, s, 1, 1e4)
	if _, ok := w.RepeatSeq(steps, 1); ok {
		t.Error("replayed a single-rank LU pipeline")
	}
	if err := w.RunSeq(steps, 1); err != nil {
		t.Fatalf("single-rank LU pipeline: %v", err)
	}
	if got := w.MaxTime(); got < 0.999e4 || got > 1.001e4 {
		t.Errorf("single-rank LU pipeline took %v, want its 1e4 compute", got)
	}
}
