package simomp

import (
	"sync"
	"testing"

	"maia/internal/machine"
	"maia/internal/vclock"
)

func TestTasksExecuteAll(t *testing.T) {
	team := NewTeam(hostRT())
	var mu sync.Mutex
	seen := map[int]int{}
	team.Tasks(100, nil, func(i int) {
		mu.Lock()
		seen[i]++
		mu.Unlock()
	})
	if len(seen) != 100 {
		t.Fatalf("%d distinct tasks ran, want 100", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("task %d ran %d times", i, c)
		}
	}
}

// Task creation serializes: with zero-cost bodies, the span approaches
// n * createCost regardless of team width.
func TestTaskCreationSerializes(t *testing.T) {
	rt := phiRT()
	team := NewTeam(rt)
	n := 512
	span := team.Tasks(n, nil, nil)
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

// Tasks with uneven costs balance across threads: makespan is near the
// critical path, far below the serial sum.
func TestTasksBalance(t *testing.T) {
	rt := New(machine.HostCoresPartition(machine.NewNode(), 8, 1))
	team := NewTeam(rt)
	costs := func(i int) vclock.Time { return vclock.Time(i%7+1) * vclock.Microsecond }
	span := team.Tasks(64, costs, nil)
	var serial vclock.Time
	for i := 0; i < 64; i++ {
		serial += costs(i)
	}
	if span.Seconds() > serial.Seconds()/2 {
		t.Fatalf("tasks did not parallelize: span %v vs serial %v", span, serial)
	}
}

// Timing is deterministic.
func TestTasksDeterministic(t *testing.T) {
	team := NewTeam(phiRT())
	costs := func(i int) vclock.Time { return vclock.Time(i%5+1) * vclock.Microsecond }
	a := team.Tasks(200, costs, nil)
	b := team.Tasks(200, costs, nil)
	if a != b {
		t.Fatalf("task timing nondeterministic: %v vs %v", a, b)
	}
}
