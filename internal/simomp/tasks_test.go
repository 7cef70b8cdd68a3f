package simomp

import (
	"testing"

	"maia/internal/machine"
	"maia/internal/vclock"
)

// Task creation serializes: with zero-grain tasks, the span approaches
// n * createCost regardless of team width.
func TestTaskCreationSerializes(t *testing.T) {
	rt := phiRT()
	team := NewTeam(rt)
	n := 512
	span := team.tasks(n, 0)
	floor := vclock.Time(float64(n)*rt.taskCosts().create) * vclock.Microsecond
	if span < floor {
		t.Fatalf("task span %v below creation floor %v", span, floor)
	}
}

// The EPCC task-overhead measurement: roughly an order of magnitude
// dearer on the Phi, like every other construct (Figure 15's family).
func TestTaskOverheadPhiRatio(t *testing.T) {
	h := MeasureTaskOverhead(hostRT(), 256)
	p := MeasureTaskOverhead(phiRT(), 256)
	if ratio := p.Seconds() / h.Seconds(); ratio < 4 || ratio > 40 {
		t.Fatalf("task overhead phi/host = %.1f, want ~10x", ratio)
	}
	if h <= 0 || p <= 0 {
		t.Fatal("overheads must be positive")
	}
}

// Tasks balance across threads: the makespan is far below the serial
// sum.
func TestTasksBalance(t *testing.T) {
	rt := New(machine.HostCoresPartition(machine.NewNode(), 8, 1))
	team := NewTeam(rt)
	grain := 4 * vclock.Microsecond
	span := team.tasks(64, grain)
	serial := 64 * grain
	if span.Seconds() > serial.Seconds()/2 {
		t.Fatalf("tasks did not parallelize: span %v vs serial %v", span, serial)
	}
}

// Timing is deterministic.
func TestTasksDeterministic(t *testing.T) {
	team := NewTeam(phiRT())
	grain := 3 * vclock.Microsecond
	a := team.tasks(200, grain)
	b := team.tasks(200, grain)
	if a != b {
		t.Fatalf("task timing nondeterministic: %v vs %v", a, b)
	}
}
