package simmpi

import (
	"fmt"
	"strings"
	"testing"

	"maia/internal/machine"
	"maia/internal/vclock"
)

func hostCfg(n int) Config {
	return Config{Ranks: HostPlacement(n, 1)}
}

func phiCfg(n, tpc int) Config {
	return Config{Ranks: PhiPlacement(machine.Phi0, n, tpc)}
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(Config{}); err == nil {
		t.Error("empty world accepted")
	}
	if _, err := NewWorld(Config{Ranks: []Location{{Device: machine.Host}}}); err == nil {
		t.Error("zero threads-per-core accepted")
	}
	w, err := NewWorld(hostCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if w.size != 4 {
		t.Fatalf("size = %d", w.size)
	}
}

func TestSendRecvRoundtrip(t *testing.T) {
	w, _ := NewWorld(hostCfg(2))
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 7, []byte("hello phi"))
		} else {
			got := r.Recv(0, 7)
			if string(got) != "hello phi" {
				panic("payload corrupted: " + string(got))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.MaxTime() <= 0 {
		t.Fatal("transfer consumed no virtual time")
	}
}

func TestSendBufferIsCopied(t *testing.T) {
	w, _ := NewWorld(hostCfg(2))
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			buf := []byte{1, 2, 3}
			r.Send(1, 0, buf)
			buf[0] = 99 // must not affect the in-flight message
			r.Send(1, 0, []byte{4})
		} else {
			if got := r.Recv(0, 0); got[0] != 1 {
				panic("send did not copy its buffer")
			}
			r.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	w, _ := NewWorld(hostCfg(2))
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1, []byte("first"))
			r.Send(1, 2, []byte("second"))
		} else {
			// Receive tag 2 first: matching must skip the tag-1 message.
			if got := r.Recv(0, 2); string(got) != "second" {
				panic("tag matching broken")
			}
			if got := r.Recv(0, AnyTag); string(got) != "first" {
				panic("AnyTag should find the remaining message")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPairFIFOOrder(t *testing.T) {
	w, _ := NewWorld(hostCfg(2))
	err := w.Run(func(r *Rank) {
		const k = 20
		if r.ID() == 0 {
			for i := 0; i < k; i++ {
				r.Send(1, 5, []byte{byte(i)})
			}
		} else {
			for i := 0; i < k; i++ {
				if got := r.Recv(0, 5); got[0] != byte(i) {
					panic("same-tag messages overtook each other")
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRankPanicsSurface(t *testing.T) {
	cases := []struct {
		name string
		body func(r *Rank)
	}{
		{"self send", func(r *Rank) { r.Send(r.ID(), 0, nil) }},
		{"bad dst", func(r *Rank) { r.Send(99, 0, nil) }},
		{"bad src", func(r *Rank) { r.Recv(-3, 0) }},
		{"negative tag", func(r *Rank) { r.Send((r.ID()+1)%2, -5, nil) }},
	}
	for _, c := range cases {
		w, _ := NewWorld(hostCfg(2))
		if err := w.Run(func(r *Rank) {
			if r.ID() == 0 {
				c.body(r)
			}
		}); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

// A failed rank must poison blocked receivers instead of deadlocking.
func TestPoisonUnblocksReceivers(t *testing.T) {
	w, _ := NewWorld(hostCfg(3))
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			panic("deliberate failure")
		default:
			r.Recv(0, 0) // would block forever without poisoning
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("err = %v, want the deliberate failure", err)
	}
}

// Mailboxes are built by Run, not NewWorld, so a world priced in closed
// form never holds one. A world the replay refuses still runs its script
// through RunSeq, and a second Run on the same world reuses the
// mailboxes the first one built.
func TestMailboxesBuiltByRun(t *testing.T) {
	steps := []SeqStep{{Kind: AllreduceKind, Bytes: 512}, {Compute: vclock.Microsecond, Kind: RingKind, Bytes: 4096}}
	priced, err := NewWorld(hostCfg(8))
	if err != nil {
		t.Fatal(err)
	}
	withFastPath(func() {
		if _, ok := priced.RepeatSeq(steps, 4); !ok {
			t.Fatal("replay refused a homogeneous host world")
		}
	})
	if priced.boxes != nil {
		t.Error("closed-form pricing built mailboxes")
	}

	mixed := Config{Ranks: append(HostPlacement(3, 1), PhiPlacement(machine.Phi0, 3, 2)...)}
	w, err := NewWorld(mixed)
	if err != nil {
		t.Fatal(err)
	}
	withFastPath(func() {
		if _, ok := w.RepeatSeq(steps, 4); ok {
			t.Fatal("replay priced a heterogeneous world")
		}
	})
	if w.boxes != nil {
		t.Error("a refused replay built mailboxes")
	}
	ref, err := NewWorld(mixed)
	if err != nil {
		t.Fatal(err)
	}
	for _, world := range []*World{w, ref} {
		if err := world.RunSeq(steps, 4); err != nil {
			t.Fatal(err)
		}
	}
	if w.MaxTime() <= 0 || w.MaxTime() != ref.MaxTime() {
		t.Errorf("RunSeq makespans %v and %v, want equal and positive", w.MaxTime(), ref.MaxTime())
	}

	sums := make([]float64, w.size)
	err = w.Run(func(r *Rank) {
		n, id := r.Size(), r.ID()
		got := r.Sendrecv((id+1)%n, 7, []byte{byte(id)}, (id+n-1)%n, 7)
		if want := byte((id + n - 1) % n); len(got) != 1 || got[0] != want {
			panic(fmt.Sprintf("rank %d received %v, want [%d]", id, got, want))
		}
		sums[id] = r.AllreduceSum(float64(id))
	})
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	for id, s := range sums {
		if s != 15 {
			t.Errorf("second Run: rank %d Allreduce sum %v, want 15", id, s)
		}
	}
}

// Virtual time is deterministic across runs despite goroutine scheduling.
func TestDeterministicTiming(t *testing.T) {
	run := func() vclock.Time {
		w, _ := NewWorld(phiCfg(16, 2))
		err := w.Run(func(r *Rank) {
			n := r.Size()
			payload := make([]byte, 1024)
			for i := 0; i < 10; i++ {
				r.Sendrecv((r.ID()+1)%n, 0, payload, (r.ID()-1+n)%n, 0)
				r.Allreduce([]float64{float64(r.ID())}, OpSum)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.MaxTime()
	}
	a := run()
	for i := 0; i < 5; i++ {
		if b := run(); b != a {
			t.Fatalf("run %d: MaxTime %v != %v", i, b, a)
		}
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	w, _ := NewWorld(hostCfg(1))
	err := w.Run(func(r *Rank) {
		r.Compute(3 * vclock.Millisecond)
		if r.clock.Now() != 3*vclock.Millisecond {
			panic("clock wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.RankTime(0) != 3*vclock.Millisecond {
		t.Fatalf("RankTime = %v", w.RankTime(0))
	}
}

// Rendezvous semantics: a large message cannot be delivered before the
// receiver posts, and the sender's post time gates the transfer.
func TestRendezvousTiming(t *testing.T) {
	w, _ := NewWorld(hostCfg(2))
	big := make([]byte, 1<<20) // > 8 KB: rendezvous
	late := 2 * vclock.Millisecond
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, big)
		} else {
			r.Compute(late) // receiver posts late
			r.Recv(0, 0)
			if r.clock.Now() <= late {
				panic("rendezvous transfer took no time after the post")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Eager message sent long before the recv is already there: the receive
// should complete at (almost) the receiver's post time.
func TestEagerOverlap(t *testing.T) {
	w, _ := NewWorld(hostCfg(2))
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, []byte{1}) // eager, in flight during the compute
		} else {
			r.Compute(vclock.Millisecond)
			before := r.clock.Now()
			r.Recv(0, 0)
			if r.clock.Now() != before {
				panic("eager message already delivered should cost nothing")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBytesF64Roundtrip(t *testing.T) {
	v := []float64{0, 1.5, -2.25, 1e300, -1e-300}
	got := unpackF64(new(World).packF64(v))
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("roundtrip[%d] = %v, want %v", i, got[i], v[i])
		}
	}
}

func TestSendrecvRing(t *testing.T) {
	w, _ := NewWorld(hostCfg(5))
	err := w.Run(func(r *Rank) {
		n := r.Size()
		got := r.Sendrecv((r.ID()+1)%n, 0, []byte{byte(r.ID())}, (r.ID()-1+n)%n, 0)
		if got[0] != byte((r.ID()-1+n)%n) {
			panic("ring exchange wrong neighbor data")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestZeroByteMessages(t *testing.T) {
	w, _ := NewWorld(hostCfg(2))
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, nil)
		} else {
			if got := r.Recv(0, 0); len(got) != 0 {
				panic("zero-byte message grew")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCrossDevicePath(t *testing.T) {
	// One rank on the host, one on each Phi: messages must take the PCIe
	// paths with their distinct latencies.
	cfg := Config{Ranks: []Location{
		{Device: machine.Host, ThreadsPerCore: 1},
		{Device: machine.Phi0, ThreadsPerCore: 1},
		{Device: machine.Phi1, ThreadsPerCore: 1},
	}}
	w, _ := NewWorld(cfg)
	var t01, t02 vclock.Time
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 0, []byte{1})
			r.Send(2, 0, []byte{1})
		case 1:
			r.Recv(0, 0)
			t01 = r.clock.Now()
		case 2:
			r.Recv(0, 0)
			t02 = r.clock.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(t02 > t01) {
		t.Fatalf("host-Phi1 (%v) should be slower than host-Phi0 (%v)", t02, t01)
	}
	if t01 < 3*vclock.Microsecond {
		t.Fatalf("host-Phi0 delivery %v below PCIe latency", t01)
	}
}

func TestAlltoallFootprintModel(t *testing.T) {
	node := machine.NewNode()
	// Figure 14: 236 ranks on the 8 GB Phi run at 4 KB but not at 8 KB.
	if !AlltoallFeasible(machine.Phi0, node, 236, 4<<10) {
		t.Error("236 ranks at 4 KB should fit")
	}
	if AlltoallFeasible(machine.Phi0, node, 236, 8<<10) {
		t.Error("236 ranks at 8 KB should NOT fit")
	}
	// The host's 32 GB runs the full sweep with 16 ranks.
	if !AlltoallFeasible(machine.Host, node, 16, 4<<20) {
		t.Error("host at 4 MB should fit")
	}
	if AlltoallFootprint(2, 1024) <= 0 {
		t.Error("footprint must be positive")
	}
}

// Stress: a random mixture of point-to-point traffic and collectives on
// a mixed-device world neither deadlocks nor loses determinism.
func TestStressRandomTraffic(t *testing.T) {
	mk := func(seed uint64) vclock.Time {
		rng := vclock.NewRNG(seed)
		n := rng.Intn(6) + 3
		locs := make([]Location, n)
		for i := range locs {
			if rng.Intn(2) == 0 {
				locs[i] = Location{Device: machine.Host, ThreadsPerCore: 1}
			} else {
				locs[i] = Location{Device: machine.Phi0, ThreadsPerCore: rng.Intn(4) + 1}
			}
		}
		w, err := NewWorld(Config{Ranks: locs})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(func(r *Rank) {
			local := vclock.NewRNG(seed ^ uint64(r.ID()))
			for round := 0; round < 20; round++ {
				right := (r.ID() + 1) % n
				left := (r.ID() - 1 + n) % n
				size := local.Intn(32 << 10)
				// The ring pattern is symmetric, so sizes must agree
				// pairwise; derive from the round only.
				size = int(seed%7)*1024 + round
				r.Sendrecv(right, round, make([]byte, size), left, round)
				switch round % 4 {
				case 0:
					r.AllreduceSum(1)
				case 1:
					r.Allgather(make([]byte, round+1))
				case 2:
					r.Gather(0, make([]byte, 8))
				default:
					r.Bcast(0, make([]byte, 128))
				}
				_ = size
			}
		}); err != nil {
			t.Fatal(err)
		}
		return w.MaxTime()
	}
	for seed := uint64(1); seed <= 8; seed++ {
		a := mk(seed)
		if b := mk(seed); a != b {
			t.Fatalf("seed %d: nondeterministic makespan %v vs %v", seed, a, b)
		}
	}
}
