package simomp

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"maia/internal/machine"
	"maia/internal/simfault"
	"maia/internal/vclock"
)

// Differential suite for the loop scheduler. A timing-only loop (every
// priced path) schedules without building chunk lists; a loop with a
// body builds them. The list-free schedule must read the same span and
// chunk count as the list-building one, and a body must still visit
// every iteration exactly once, across schedules, chunk sizes, team
// sizes, trip counts, cost models and a straggler slowdown.
func TestScheduleWithoutListsMatchesLists(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	part := machine.PhiThreadsPartition(machine.NewNode(), machine.Phi0, 236)
	runtimes := []*Runtime{New(part), New(part, WithFaultPlan(simfault.PhiStraggler()))}
	if runtimes[1].slow <= 1 {
		t.Fatalf("straggler runtime slowdown %v, want above 1", runtimes[1].slow)
	}
	for trial := 0; trial < 300; trial++ {
		rt := runtimes[rng.Intn(len(runtimes))]
		threads := 1 + rng.Intn(240)
		team := &Team{rt: rt, threads: threads, workers: 2}
		n := []int{0, 1, rng.Intn(threads), threads * (20 + rng.Intn(40))}[rng.Intn(4)]
		o := ForOpts{
			Sched:    []Schedule{Static, Dynamic, Guided}[rng.Intn(3)],
			Chunk:    []int{0, 1, 2 + rng.Intn(64)}[rng.Intn(3)],
			IterCost: vclock.Time(1 + rng.Intn(1000)),
		}

		lists, listedChunks, listedSpan := team.schedule(n, o, true)
		none, chunks, span := team.schedule(n, o, false)
		if none != nil || span != listedSpan || chunks != listedChunks {
			t.Fatalf("trial %d (threads=%d n=%d opts=%+v): list-free span %v chunks %d lists %v, list-building span %v chunks %d",
				trial, threads, n, o, span, chunks, none != nil, listedSpan, listedChunks)
		}
		inLists := 0
		for _, cs := range lists {
			inLists += len(cs)
		}
		if inLists != chunks {
			t.Fatalf("trial %d (threads=%d n=%d opts=%+v): lists hold %d chunks, count says %d",
				trial, threads, n, o, inLists, chunks)
		}

		visits := make([]atomic.Int32, n)
		visit := func(i int) { visits[i].Add(1) }
		var timed, ran vclock.Time
		switch trial % 3 {
		case 0:
			timed, ran = team.For(n, o, nil), team.For(n, o, visit)
		case 1:
			timed, ran = team.ParallelFor(n, o, nil), team.ParallelFor(n, o, visit)
		default:
			var sum float64
			_, timed = team.ForReduceSum(n, o, nil)
			sum, ran = team.ForReduceSum(n, o, func(i int) float64 { visit(i); return 1 })
			if sum != float64(n) {
				t.Fatalf("trial %d: reduction sums to %v, want %d", trial, sum, n)
			}
		}
		if timed != ran {
			t.Fatalf("trial %d (threads=%d n=%d opts=%+v): timing-only loop %v, loop with body %v",
				trial, threads, n, o, timed, ran)
		}
		for i := range visits {
			if v := visits[i].Load(); v != 1 {
				t.Fatalf("trial %d (threads=%d n=%d opts=%+v): iteration %d ran %d times",
					trial, threads, n, o, i, v)
			}
		}
	}
}
