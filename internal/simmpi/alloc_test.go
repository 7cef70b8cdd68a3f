package simmpi

import (
	"testing"

	"maia/internal/machine"
	"maia/internal/vclock"
)

// Allocation-regression guards for the send/recv path and the replay.
// A content-preserving message costs its one payload copy plus the
// amortized mailbox slice growth; a regression that adds per-message
// bookkeeping (or a second copy) blows straight through these bounds.

// sendrecvWorldAllocs runs a 2-rank world exchanging msgs messages of
// msgBytes each and returns the total allocation count of the world
// run.
func sendrecvWorldAllocs(t testing.TB, msgs, msgBytes int) float64 {
	buf := make([]byte, msgBytes)
	return testing.AllocsPerRun(3, func() {
		w, err := NewWorld(Config{Ranks: HostPlacement(2, 1)})
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(r *Rank) {
			if r.ID() == 0 {
				for k := 0; k < msgs; k++ {
					r.Send(1, 1, buf)
				}
			} else {
				for k := 0; k < msgs; k++ {
					r.Recv(0, 1)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestSendRecvPooledAllocBound pins the marginal allocations per
// send/recv pair. The bound is deliberately loose (the true steady
// state is ~1: the payload copy the message owns) so only a real
// regression — e.g. a second copy per message — trips it.
func TestSendRecvPooledAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; bound asserted in normal builds")
	}
	const msgBytes = 4096
	base := sendrecvWorldAllocs(t, 64, msgBytes)
	more := sendrecvWorldAllocs(t, 64+1024, msgBytes)
	perMsg := (more - base) / 1024
	if perMsg > 4 {
		t.Errorf("send/recv allocates %.2f allocs/message, want <= 4", perMsg)
	}
}

// TestRunSeqMessageAllocBound pins what one more goroutine-engine
// message costs on a 4-rank ring: its payload copy and one amortized
// mailbox append. A receive that dequeues by reslicing the queue down
// to zero capacity makes the next send from that source grow a fresh
// backing array, and reads 3.5 allocs/message here.
func TestRunSeqMessageAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; bound asserted in normal builds")
	}
	const ranks = 4
	ringAllocs := func(iters int) float64 {
		w, err := NewWorld(Config{Ranks: HostPlacement(ranks, 1)})
		if err != nil {
			t.Fatal(err)
		}
		steps := []SeqStep{{Kind: RingKind, Bytes: 4096}}
		return testing.AllocsPerRun(3, func() {
			if err := w.RunSeq(steps, iters); err != nil {
				t.Fatal(err)
			}
		})
	}
	base, more := ringAllocs(64), ringAllocs(64+1024)
	if perMsg := (more - base) / (ranks * 1024); perMsg > 2.5 {
		t.Errorf("ring RunSeq allocates %.2f allocs/message, want <= 2.5", perMsg)
	}
}

// TestRepeatOpAllocsIndependentOfIters pins the closed-form replay's
// defining property: pricing 4096 collectives must not allocate more
// than pricing 4 (the replay is a scalar recurrence, not a message
// loop). This is the structural guarantee behind the fig13/fig14
// malloc reduction.
func TestRepeatOpAllocsIndependentOfIters(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; bound asserted in normal builds")
	}
	repeatAllocs := func(iters int) float64 {
		w, err := NewWorld(Config{Ranks: HostPlacement(4, 1)})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, ok := w.RepeatOp(AllgatherKind, 4096, iters); !ok {
				t.Fatal("fast path refused a symmetric Allgather")
			}
		})
	}
	var base, more float64
	withFastPath(func() { base, more = repeatAllocs(4), repeatAllocs(4096) })
	if more > base {
		t.Errorf("RepeatOp allocs grew with iters: %v at 4 iters, %v at 4096", base, more)
	}
}

// rackSeqAllocs prices a rack script on the hierarchical replay and
// returns the allocation count of the pricing alone (world construction
// excluded).
func rackSeqAllocs(t testing.TB, nodes, perNode, iters int) float64 {
	w, err := NewWorld(Config{
		Ranks:  RackPlacement(machine.Host, nodes, perNode, 1),
		Fabric: machine.NewRackFabric(nodes),
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := []SeqStep{
		{Compute: 3 * vclock.Microsecond, Kind: AllreduceKind, Bytes: 64},
		{Kind: AlltoallKind, Bytes: 256},
	}
	return testing.AllocsPerRun(5, func() {
		if _, ok := w.RepeatSeq(steps, iters); !ok {
			t.Fatal("rack replay refused a healthy power-of-two rack")
		}
	})
}

// TestRackReplayAllocsIndependentOfIters pins the hierarchical replay's
// defining property: pricing 4096 script iterations on a rack world
// must not allocate more than pricing 4. The replay's state is one
// clock vector allocated up front, not per-iteration messages.
func TestRackReplayAllocsIndependentOfIters(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; bound asserted in normal builds")
	}
	var base, more float64
	withFastPath(func() {
		base, more = rackSeqAllocs(t, 8, 4, 4), rackSeqAllocs(t, 8, 4, 4096)
	})
	if more > base {
		t.Errorf("rack replay allocs grew with iters: %v at 4 iters, %v at 4096", base, more)
	}
}

// TestRackReplayAllocsIndependentOfNodes pins the replay's scaling law:
// its state is O(ranks-per-node) — one representative node's clock
// vector — so pricing 64 nodes must not allocate more than pricing 2.
// This is what makes the full 128-node rack priceable in closed form.
func TestRackReplayAllocsIndependentOfNodes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; bound asserted in normal builds")
	}
	var small, large float64
	withFastPath(func() {
		small, large = rackSeqAllocs(t, 2, 4, 16), rackSeqAllocs(t, 64, 4, 16)
	})
	if large > small {
		t.Errorf("rack replay allocs grew with node count: %v at 2 nodes, %v at 64", small, large)
	}
}

// TestCollectiveTimeAllocsIndependentOfRanks pins what one replay-priced
// IMB point allocates: the world's fixed state and the replay's, none
// of it per rank. A world priced in closed form sends no message, so it
// builds no mailbox; building one per rank in NewWorld again would cost
// hundreds of objects at 236 ranks.
func TestCollectiveTimeAllocsIndependentOfRanks(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; bound asserted in normal builds")
	}
	host := Config{Ranks: HostPlacement(16, 1)}
	phi := Config{Ranks: PhiPlacement(machine.Phi0, 236, 4)}
	for _, kind := range []CollectiveKind{BcastKind, AllreduceKind, AllgatherKind, AlltoallKind} {
		allocs := func(cfg Config) float64 {
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := w.RepeatOp(kind, 4096, 100); !ok {
				t.Fatalf("%v: replay refused %d ranks", kind, len(cfg.Ranks))
			}
			return testing.AllocsPerRun(5, func() {
				if _, err := CollectiveTime(cfg, kind, 4096, 100); err != nil {
					t.Fatal(err)
				}
			})
		}
		var small, large float64
		withFastPath(func() { small, large = allocs(host), allocs(phi) })
		if large > small+8 {
			t.Errorf("%v: CollectiveTime allocates %v objects at 236 Phi ranks, %v at 16 host ranks; want within 8",
				kind, large, small)
		}
	}
}

// BenchmarkSendRecv is the -benchmem view of the same path: a 2-rank
// world streaming 4 KB messages.
func BenchmarkSendRecv(b *testing.B) {
	b.ReportAllocs()
	buf := make([]byte, 4096)
	for i := 0; i < b.N; i++ {
		w, err := NewWorld(Config{Ranks: HostPlacement(2, 1)})
		if err != nil {
			b.Fatal(err)
		}
		err = w.Run(func(r *Rank) {
			if r.ID() == 0 {
				for k := 0; k < 64; k++ {
					r.Send(1, 1, buf)
				}
			} else {
				for k := 0; k < 64; k++ {
					r.Recv(0, 1)
				}
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
