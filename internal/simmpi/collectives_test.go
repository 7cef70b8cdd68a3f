package simmpi

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"maia/internal/machine"
	"maia/internal/pcie"
	"maia/internal/vclock"
)

// runWorld is a test helper that builds a host world of n ranks and runs
// body, failing the test on error.
func runWorld(t *testing.T, n int, body func(r *Rank)) *World {
	t.Helper()
	w, err := NewWorld(hostCfg(n))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBcastAllSizesAndRoots(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16, 31} {
		for _, root := range []int{0, n - 1, n / 2} {
			payload := []byte("broadcast me")
			runWorld(t, n, func(r *Rank) {
				in := make([]byte, len(payload))
				if r.ID() == root {
					copy(in, payload)
				}
				out := r.Bcast(root, in)
				if !bytes.Equal(out, payload) {
					panic("bcast corrupted payload")
				}
			})
		}
	}
}

// Long broadcasts take the van de Geijn path and still deliver the exact
// payload, for awkward sizes and roots.
func TestBcastLongMessage(t *testing.T) {
	for _, n := range []int{3, 4, 7, 16} {
		for _, size := range []int{1 << 20, 1<<20 + 13} {
			root := n / 2
			payload := make([]byte, size)
			for i := range payload {
				payload[i] = byte(i * 31)
			}
			runWorld(t, n, func(r *Rank) {
				in := make([]byte, size)
				if r.ID() == root {
					copy(in, payload)
				}
				out := r.Bcast(root, in)
				if !bytes.Equal(out, payload) {
					panic("long bcast corrupted payload")
				}
			})
		}
	}
}

// The Cart3D case (Section 6.4.2): a 56 MB-class broadcast is much
// cheaper under the long algorithm than under a pure binomial tree.
func TestBcastLongAlgorithmPays(t *testing.T) {
	const m = 8 << 20
	long, err := CollectiveTime(Config{Ranks: HostPlacement(16, 1)}, BcastKind, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	binomialOnly, err := CollectiveTime(Config{
		Ranks: HostPlacement(16, 1), BcastLongBytes: 1 << 30,
	}, BcastKind, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := binomialOnly.Seconds() / long.Seconds(); ratio < 1.5 {
		t.Fatalf("van de Geijn gain = %.2fx, want >= 1.5x", ratio)
	}
}

// The binomial reduce-to-root is the first half of Allreduce on
// non-power-of-two worlds.
func TestReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 13} {
		want := float64(n * (n - 1) / 2)
		runWorld(t, n, func(r *Rank) {
			res := r.reduceImpl(0, r.w.packF64([]float64{float64(r.ID()), 1}), OpSum)
			if r.ID() == 0 {
				if v := unpackF64(res); v[0] != want || v[1] != float64(n) {
					panic("reduce wrong")
				}
			} else if res.n != 0 {
				panic("non-root got a result")
			}
		})
	}
}

func TestAllreduceMatchesReduce(t *testing.T) {
	// Property: for random vectors, Allreduce equals the rank-0 Reduce
	// result, on every rank, for both power-of-two and general sizes.
	f := func(seed uint64, nRaw, lenRaw uint8) bool {
		n := int(nRaw%9) + 1    // 1..9 ranks
		l := int(lenRaw%16) + 1 // 1..16 elements
		rng := vclock.NewRNG(seed)
		inputs := make([][]float64, n)
		for i := range inputs {
			inputs[i] = make([]float64, l)
			for j := range inputs[i] {
				inputs[i][j] = rng.Float64()*2 - 1
			}
		}
		want := make([]float64, l)
		for _, in := range inputs {
			OpSum(want, in)
		}
		ok := true
		w, err := NewWorld(hostCfg(n))
		if err != nil {
			return false
		}
		err = w.Run(func(r *Rank) {
			got := r.Allreduce(inputs[r.ID()], OpSum)
			for j := range got {
				if math.Abs(got[j]-want[j]) > 1e-12 {
					ok = false
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// All ranks get bit-identical Allreduce results (fixed combine order).
func TestAllreduceIdenticalAcrossRanks(t *testing.T) {
	n := 8
	results := make([][]float64, n)
	runWorld(t, n, func(r *Rank) {
		v := []float64{1.0 / float64(r.ID()+1), float64(r.ID()) * 0.1}
		results[r.ID()] = r.Allreduce(v, OpSum)
	})
	for i := 1; i < n; i++ {
		for j := range results[0] {
			if results[i][j] != results[0][j] {
				t.Fatalf("rank %d result differs in element %d: %v vs %v",
					i, j, results[i][j], results[0][j])
			}
		}
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	n := 6
	opMin := func(dst, src []float64) {
		for i := range dst {
			dst[i] = math.Min(dst[i], src[i])
		}
	}
	runWorld(t, n, func(r *Rank) {
		x := float64(r.ID())
		mx := r.Allreduce([]float64{x}, OpMax)[0]
		mn := r.Allreduce([]float64{x}, opMin)[0]
		if mx != float64(n-1) || mn != 0 {
			panic("max/min wrong")
		}
	})
}

// Allgather correctness for both algorithms: small power-of-two payloads
// take recursive doubling, everything else takes the ring.
func TestAllgatherBothAlgorithms(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 3, 5, 12} {
		for _, m := range []int{1, 64, 2048, 4096, 9000} {
			runWorld(t, n, func(r *Rank) {
				block := bytes.Repeat([]byte{byte(r.ID() + 1)}, m)
				out := r.Allgather(block)
				if len(out) != n*m {
					panic("allgather output size wrong")
				}
				for rank := 0; rank < n; rank++ {
					for i := 0; i < m; i++ {
						if out[rank*m+i] != byte(rank+1) {
							panic("allgather block misplaced")
						}
					}
				}
			})
		}
	}
}

// Figure 13's step: on a power-of-two world the per-op time jumps when
// the payload crosses the algorithm switch (recursive doubling -> ring).
func TestAllgatherAlgorithmSwitchJump(t *testing.T) {
	cfg := phiCfg(64, 1)
	tSmall, err := CollectiveTime(cfg, AllgatherKind, 2048, 2)
	if err != nil {
		t.Fatal(err)
	}
	tBig, err := CollectiveTime(cfg, AllgatherKind, 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Doubling the payload under one algorithm at most doubles the time;
	// the switch must produce a super-2x jump.
	if ratio := tBig.Seconds() / tSmall.Seconds(); ratio < 2.2 {
		t.Fatalf("no algorithm-switch jump: 4KB/2KB time ratio = %.2f", ratio)
	}
}

func TestAlltoall(t *testing.T) {
	for _, n := range []int{1, 2, 4, 5, 9} {
		const m = 16
		runWorld(t, n, func(r *Rank) {
			// Block for rank d is filled with (sender, dest) so any
			// misrouting is detectable.
			buf := make([]byte, n*m)
			for d := 0; d < n; d++ {
				for i := 0; i < m; i += 2 {
					buf[d*m+i] = byte(r.ID())
					buf[d*m+i+1] = byte(d)
				}
			}
			out := r.Alltoall(buf, m)
			for s := 0; s < n; s++ {
				for i := 0; i < m; i += 2 {
					if out[s*m+i] != byte(s) || out[s*m+i+1] != byte(r.ID()) {
						panic("alltoall misrouted a block")
					}
				}
			}
		})
	}
}

func TestAlltoallBadBuffer(t *testing.T) {
	w, _ := NewWorld(hostCfg(2))
	if err := w.Run(func(r *Rank) {
		r.Alltoall(make([]byte, 3), 2) // wrong length
	}); err == nil {
		t.Fatal("bad buffer accepted")
	}
}

func TestGatherScatter(t *testing.T) {
	for _, n := range []int{1, 2, 6} {
		root := n / 2
		runWorld(t, n, func(r *Rank) {
			got := r.Gather(root, []byte{byte(r.ID()), byte(r.ID() + 100)})
			if r.ID() == root {
				for rank := 0; rank < n; rank++ {
					if got[2*rank] != byte(rank) || got[2*rank+1] != byte(rank+100) {
						panic("gather misplaced a block")
					}
				}
			} else if got != nil {
				panic("non-root gather returned data")
			}

			var all []byte
			if r.ID() == root {
				all = make([]byte, n)
				for i := range all {
					all[i] = byte(i * 3)
				}
			}
			mine := r.scatterImpl(root, r.w.wrap(all), 1).bytes()
			if mine[0] != byte(r.ID()*3) {
				panic("scatter delivered the wrong block")
			}
		})
	}
}

func TestAllreduceSumScalar(t *testing.T) {
	n := 7
	runWorld(t, n, func(r *Rank) {
		if got := r.AllreduceSum(2); got != float64(2*n) {
			panic("AllreduceSum wrong")
		}
	})
}

// Figure 10 shape: host ring bandwidth beats the Phi at 1 thread/core by
// ~1.3–3.5x and at 4 threads/core by ~24–54x.
func TestFig10Ratios(t *testing.T) {
	hostBW := func(m int) float64 {
		bw, err := RingBandwidth(Config{Ranks: HostPlacement(16, 1)}, m, 3)
		if err != nil {
			t.Fatal(err)
		}
		return bw
	}
	phiBW := func(m, tpc, ranks int) float64 {
		bw, err := RingBandwidth(phiCfg(ranks, tpc), m, 3)
		if err != nil {
			t.Fatal(err)
		}
		return bw
	}
	for _, m := range []int{64, 4096, 256 << 10, 4 << 20} {
		r1 := hostBW(m) / phiBW(m, 1, 59)
		if r1 < 1.2 || r1 > 4.0 {
			t.Errorf("host/phi(1tpc) at %d B = %.2f, want 1.3–3.5", m, r1)
		}
		r4 := hostBW(m) / phiBW(m, 4, 236)
		if r4 < 20 || r4 > 60 {
			t.Errorf("host/phi(4tpc) at %d B = %.2f, want 24–54", m, r4)
		}
	}
}

// Figures 11–12 shape: collectives are faster on the host than on Phi0,
// and more threads per core on the Phi make them much worse.
func TestCollectiveHostAdvantage(t *testing.T) {
	for _, kind := range []CollectiveKind{BcastKind, AllreduceKind, AllgatherKind, AlltoallKind} {
		for _, m := range []int{8, 1024} {
			host, err := CollectiveTime(hostCfg(16), kind, m, 2)
			if err != nil {
				t.Fatal(err)
			}
			phi1, err := CollectiveTime(phiCfg(59, 1), kind, m, 2)
			if err != nil {
				t.Fatal(err)
			}
			phi4, err := CollectiveTime(phiCfg(236, 4), kind, m, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !(host < phi1 && phi1 < phi4) {
				t.Errorf("%v at %d B: want host (%v) < phi 1tpc (%v) < phi 4tpc (%v)",
					kind, m, host, phi1, phi4)
			}
		}
	}
}

func TestCollectiveKindString(t *testing.T) {
	if BcastKind.String() != "MPI_Bcast" || AlltoallKind.String() != "MPI_AlltoAll" {
		t.Error("CollectiveKind.String wrong")
	}
}

func TestRingBandwidthSingleRankFails(t *testing.T) {
	// A 1-rank ring would self-send; the panic must surface as an error.
	if _, err := RingBandwidth(hostCfg(1), 64, 1); err == nil {
		t.Fatal("1-rank ring accepted")
	}
}

func TestCollectiveOnPreUpdateStack(t *testing.T) {
	// Symmetric-mode worlds route some pairs over PCIe; both software
	// stacks must work and post-update must be at least as fast.
	mk := func(sw pcie.Software) Config {
		locs := append(HostPlacement(4, 1), PhiPlacement(machine.Phi0, 4, 1)...)
		return Config{Ranks: locs, Stack: pcie.NewStack(sw)}
	}
	pre, err := CollectiveTime(mk(pcie.PreUpdate), BcastKind, 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	post, err := CollectiveTime(mk(pcie.PostUpdate), BcastKind, 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if post >= pre {
		t.Fatalf("post-update bcast (%v) not faster than pre-update (%v)", post, pre)
	}
}

// Property: collectives deliver correct results regardless of how ranks
// are scattered across host, Phi0 and Phi1 (placement changes timing,
// never data).
func TestCollectivesOnRandomPlacements(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%7) + 2
		rng := vclock.NewRNG(seed)
		locs := make([]Location, n)
		devices := []machine.Device{machine.Host, machine.Phi0, machine.Phi1}
		for i := range locs {
			dev := devices[rng.Intn(3)]
			tpc := rng.Intn(2) + 1
			if dev.IsPhi() {
				tpc = rng.Intn(4) + 1
			}
			locs[i] = Location{Device: dev, ThreadsPerCore: tpc}
		}
		w, err := NewWorld(Config{Ranks: locs})
		if err != nil {
			return false
		}
		ok := true
		err = w.Run(func(r *Rank) {
			sum := r.AllreduceSum(float64(r.ID() + 1))
			if sum != float64(n*(n+1)/2) {
				ok = false
			}
			all := r.Allgather([]byte{byte(r.ID())})
			for i := 0; i < n; i++ {
				if all[i] != byte(i) {
					ok = false
				}
			}
			buf := make([]byte, n)
			if r.ID() == 0 {
				for i := range buf {
					buf[i] = byte(i * 3)
				}
			}
			got := r.Bcast(0, buf)
			for i := range got {
				if got[i] != byte(i*3) {
					ok = false
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
