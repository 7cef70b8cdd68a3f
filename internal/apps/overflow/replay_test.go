package overflow

import (
	"os"
	"testing"

	"maia/internal/core"
	"maia/internal/machine"
	"maia/internal/simfault"
	"maia/internal/simmpi"
	"maia/internal/vclock"
)

// The step script's exactness contract: on every homogeneous healthy
// world of Figure 22, the closed-form replay of stepScript (RepeatSeq)
// must reproduce the goroutine engine's run of the same script (RunSeq)
// bit for bit, and on every world it cannot price (heterogeneous,
// faulted, single-rank) it must refuse so the engine stays
// authoritative.

// stepInputs mirrors StepTime's world construction: equal-speed
// decomposition, one location per rank, and the per-rank compute charge
// from the steady slowdown math.
func stepInputs(t *testing.T, m core.Model, node *machine.Node, dev machine.Device,
	c Combo, d Dataset) ([]simmpi.Location, []vclock.Time, [][]Piece) {
	t.Helper()
	speeds := make([]float64, c.Ranks)
	for i := range speeds {
		speeds[i] = 1
	}
	assignment, err := Decompose(d, speeds)
	if err != nil {
		t.Fatal(err)
	}
	tpc := rankPartition(node, dev, c).ThreadsPerCore
	locs := make([]simmpi.Location, c.Ranks)
	computes := make([]vclock.Time, c.Ranks)
	for i := 0; i < c.Ranks; i++ {
		locs[i] = simmpi.Location{Device: dev, ThreadsPerCore: tpc}
		computes[i] = rankStepTime(m, node, dev, c, assignment[i])
	}
	return locs, computes, assignment
}

// TestStepReplayMatchesGoroutineRun drives the replay and the goroutine
// engine over the full Figure 22 combo catalog on both datasets and
// demands bit-identical makespans.
func TestStepReplayMatchesGoroutineRun(t *testing.T) {
	if os.Getenv("MAIA_NO_FASTPATH") != "" {
		t.Skip("replay disabled by MAIA_NO_FASTPATH")
	}
	m := core.DefaultModel()
	node := machine.NewNode()
	type tc struct {
		dev machine.Device
		c   Combo
	}
	var cases []tc
	for _, c := range HostCombos() {
		cases = append(cases, tc{machine.Host, c})
	}
	for _, c := range PhiCombos() {
		cases = append(cases, tc{machine.Phi0, c})
	}
	for _, d := range []Dataset{DLRF6Medium(), DLRF6Large()} {
		for _, cs := range cases {
			locs, computes, assignment := stepInputs(t, m, node, cs.dev, cs.c, d)
			mk := func() *simmpi.World {
				w, err := simmpi.NewWorld(simmpi.Config{Ranks: locs, SizeOnlyPayloads: true})
				if err != nil {
					t.Fatal(err)
				}
				return w
			}
			steps := stepScript(computes, assignment)
			fast, ok := mk().RepeatSeq(steps, 1)
			if cs.c.Ranks < 2 {
				if ok {
					t.Errorf("%s %v: replay accepted a single-rank world", cs.dev, cs.c)
				}
				continue
			}
			if !ok {
				t.Fatalf("%s %v: replay refused a homogeneous healthy world", cs.dev, cs.c)
			}
			slow := mk()
			if err := slow.RunSeq(steps, 1); err != nil {
				t.Fatal(err)
			}
			if fast != slow.MaxTime() {
				t.Fatalf("%s %v (%d zones): replay %v != goroutine %v",
					cs.dev, cs.c, len(d.Zones), fast, slow.MaxTime())
			}
		}
	}
}

// TestStepReplayRefusals pins the fallback conditions: the Figure 23
// symmetric (host+Phi) world and any faulted world must refuse, keeping
// profiles and fault derating on the goroutine engine.
func TestStepReplayRefusals(t *testing.T) {
	m := core.DefaultModel()
	node := machine.NewNode()
	d := DLRF6Medium()

	// Heterogeneous: 2 host ranks + 2 Phi ranks, the fig23 shape.
	locs := append(simmpi.HostPlacement(2, 1), simmpi.PhiPlacement(machine.Phi0, 2, 4)...)
	speeds := []float64{1, 1, 1, 1}
	assignment, err := Decompose(d, speeds)
	if err != nil {
		t.Fatal(err)
	}
	computes := make([]vclock.Time, len(locs))
	for i := range computes {
		computes[i] = rankStepTime(m, node, locs[i].Device, Combo{2, 1}, assignment[i])
	}
	wm, err := simmpi.NewWorld(simmpi.Config{Ranks: locs, SizeOnlyPayloads: true})
	if err != nil {
		t.Fatal(err)
	}
	steps := stepScript(computes, assignment)
	if _, ok := wm.RepeatSeq(steps, 1); ok {
		t.Error("replay accepted the heterogeneous symmetric world")
	}

	// Faulted: a homogeneous world under a straggler plan.
	wf, err := simmpi.NewWorld(simmpi.Config{Ranks: simmpi.HostPlacement(4, 1), SizeOnlyPayloads: true},
		simmpi.WithFaultPlan(simfault.PhiStraggler()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wf.RepeatSeq(steps, 1); ok {
		t.Error("replay accepted a faulted world")
	}
}
