package simomp

import (
	"testing"
	"testing/quick"

	"maia/internal/machine"
	"maia/internal/vclock"
)

func hostRT() *Runtime {
	return New(machine.HostPartition(machine.NewNode(), 1))
}

func phiRT() *Runtime {
	return New(machine.PhiThreadsPartition(machine.NewNode(), machine.Phi0, 236))
}

// Figure 15: every construct costs roughly an order of magnitude more on
// the Phi (236 threads) than on the host (16 threads).
func TestFig15PhiOrderOfMagnitude(t *testing.T) {
	host, phi := hostRT(), phiRT()
	for _, c := range Constructs() {
		h := MeasureSyncOverhead(host, c).Microseconds()
		p := MeasureSyncOverhead(phi, c).Microseconds()
		ratio := p / h
		if ratio < 5 || ratio > 40 {
			t.Errorf("%v: phi/host overhead ratio = %.1f (phi %.2fus, host %.2fus), want ~10x",
				c, ratio, p, h)
		}
	}
}

// Figure 15 ordering: REDUCTION is the most expensive construct, followed
// by PARALLEL FOR and PARALLEL; ATOMIC is the least expensive.
func TestFig15Ordering(t *testing.T) {
	for _, rt := range []*Runtime{hostRT(), phiRT()} {
		o := make(map[Construct]vclock.Time)
		for _, c := range Constructs() {
			o[c] = MeasureSyncOverhead(rt, c)
		}
		if !(o[Reduction] > o[ParallelFor] && o[ParallelFor] > o[Parallel]) {
			t.Errorf("%v: want REDUCTION > PARALLEL FOR > PARALLEL, got %v > %v > %v",
				rt.part, o[Reduction], o[ParallelFor], o[Parallel])
		}
		for _, c := range Constructs() {
			if c != Atomic && o[c] <= o[Atomic] {
				t.Errorf("%v: %v (%v) not above ATOMIC (%v)", rt.part, c, o[c], o[Atomic])
			}
		}
	}
}

// Figure 16: STATIC < GUIDED < DYNAMIC at the default chunk size, on both
// devices, and the Phi is roughly an order of magnitude worse.
func TestFig16Ordering(t *testing.T) {
	for _, rt := range []*Runtime{hostRT(), phiRT()} {
		st := MeasureSchedOverhead(rt, Static, 0)
		dy := MeasureSchedOverhead(rt, Dynamic, 1)
		gu := MeasureSchedOverhead(rt, Guided, 1)
		if !(st < gu && gu < dy) {
			t.Errorf("%v: want STATIC (%v) < GUIDED (%v) < DYNAMIC (%v)",
				rt.part, st, gu, dy)
		}
	}
	hostDyn := MeasureSchedOverhead(hostRT(), Dynamic, 1)
	phiDyn := MeasureSchedOverhead(phiRT(), Dynamic, 1)
	if r := phiDyn.Seconds() / hostDyn.Seconds(); r < 5 || r > 40 {
		t.Errorf("dynamic phi/host = %.1f, want ~10x", r)
	}
}

// Bigger chunks amortize the dynamic dispatch counter.
func TestFig16ChunkAmortization(t *testing.T) {
	rt := phiRT()
	prev := vclock.Time(1 << 62)
	for _, chunk := range []int{1, 2, 4, 8, 16, 32} {
		o := MeasureSchedOverhead(rt, Dynamic, chunk)
		if o > prev {
			t.Errorf("dynamic overhead rose at chunk %d: %v > %v", chunk, o, prev)
		}
		prev = o
	}
}

// Property: every schedule executes every iteration exactly once.
func TestScheduleCoverage(t *testing.T) {
	rt := New(machine.HostCoresPartition(machine.NewNode(), 7, 1))
	team := NewTeam(rt)
	f := func(nRaw uint16, chunkRaw uint8, schedRaw uint8) bool {
		n := int(nRaw%2048) + 1
		chunk := int(chunkRaw % 64) // 0 = default
		sched := Schedule(schedRaw % 3)
		counts := make([]int32, n)
		team.For(n, ForOpts{Sched: sched, Chunk: chunk, IterCost: vclock.Nanosecond},
			func(i int) { counts[i]++ })
		for _, c := range counts {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Real execution: a reduction sums its body deterministically.
func TestForReduceSum(t *testing.T) {
	team := NewTeam(hostRT())
	n := 10000
	want := float64(n*(n-1)) / 2
	for _, sched := range Schedules() {
		sum, elapsed := team.ForReduceSum(n, ForOpts{Sched: sched, Chunk: 8, IterCost: vclock.Nanosecond},
			func(i int) float64 { return float64(i) })
		if sum != want {
			t.Errorf("%v: sum = %v, want %v", sched, sum, want)
		}
		if elapsed <= 0 {
			t.Errorf("%v: non-positive elapsed %v", sched, elapsed)
		}
	}
}

// Virtual time is deterministic: identical calls yield identical times.
func TestTimingDeterministic(t *testing.T) {
	team := NewTeam(phiRT())
	opts := ForOpts{Sched: Dynamic, Chunk: 3, IterCost: 3 * vclock.Nanosecond}
	a := team.For(5000, opts, nil)
	b := team.For(5000, opts, nil)
	if a != b {
		t.Fatalf("elapsed differs: %v vs %v", a, b)
	}
}

// Fork/join cost: the OS-core partitions (60/120/180/240 threads) pay a
// multiplier over the 59-core placements (substrate for Figure 24).
func TestOSCorePenalty(t *testing.T) {
	n := machine.NewNode()
	clean := New(machine.PhiThreadsPartition(n, machine.Phi0, 236))
	dirty := New(machine.PhiThreadsPartition(n, machine.Phi0, 240))
	for _, c := range []Construct{Parallel, Barrier, Reduction} {
		oc := clean.SyncOverhead(c)
		od := dirty.SyncOverhead(c)
		if od.Seconds()/oc.Seconds() < 2 {
			t.Errorf("%v: OS-core penalty %v/%v = %.2f, want >= 2x", c, od, oc, od.Seconds()/oc.Seconds())
		}
	}
}

// More simulated threads than real work: loops shorter than the team still
// cover all iterations and don't hang.
func TestTinyLoopOnWideTeam(t *testing.T) {
	team := NewTeam(phiRT())
	hit := make([]int32, 3)
	team.For(3, ForOpts{Sched: Dynamic, IterCost: vclock.Nanosecond}, func(i int) { hit[i]++ })
	for i, h := range hit {
		if h != 1 {
			t.Fatalf("iteration %d ran %d times", i, h)
		}
	}
	if got := team.For(0, ForOpts{Sched: Static}, nil); got <= 0 {
		t.Fatal("empty loop must still pay construct overhead")
	}
}

// Parallel executes the body once per simulated thread.
func TestParallelBodyPerThread(t *testing.T) {
	rt := New(machine.HostCoresPartition(machine.NewNode(), 5, 2))
	team := NewTeam(rt)
	counts := make([]int32, team.Threads())
	team.Parallel(func(tid int) { counts[tid]++ }, nil)
	for tid, c := range counts {
		if c != 1 {
			t.Fatalf("thread %d ran %d times", tid, c)
		}
	}
}

// The dynamic scheduler's counter serializes: with zero-cost iterations
// and chunk 1, the loop span approaches n * dispatch regardless of the
// team width.
func TestDynamicSerialization(t *testing.T) {
	rt := phiRT()
	team := NewTeam(rt)
	n := 1024
	elapsed := team.For(n, ForOpts{Sched: Dynamic, Chunk: 1}, nil)
	lower := vclock.Time(float64(n)) * rt.dispatchCost() * 9 / 10
	if elapsed < lower {
		t.Fatalf("dynamic span %v below serialized bound %v", elapsed, lower)
	}
}

func TestStringers(t *testing.T) {
	if Parallel.String() != "PARALLEL" || Reduction.String() != "REDUCTION" ||
		Lock.String() != "LOCK/UNLOCK" {
		t.Error("Construct.String wrong")
	}
	if Static.String() != "STATIC" || Dynamic.String() != "DYNAMIC" || Guided.String() != "GUIDED" {
		t.Error("Schedule.String wrong")
	}
}
