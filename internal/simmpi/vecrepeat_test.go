package simmpi

import (
	"math/rand"
	"testing"

	"maia/internal/machine"
	"maia/internal/simfault"
	"maia/internal/vclock"
)

// The clock-vector replay's exactness properties: asymmetric algorithms
// and per-rank script shapes must reproduce the goroutine engine's
// virtual time BIT for bit, and the refusal conditions must keep the
// slow engine reachable.

// randomNonPow2 builds a homogeneous world with a non-power-of-two rank
// count — the reduce+bcast Allreduce regime.
func randomNonPow2(rng *rand.Rand) Config {
	sizes := []int{3, 5, 6, 7, 9, 12, 24}
	n := sizes[rng.Intn(len(sizes))]
	if rng.Intn(2) == 0 {
		return Config{Ranks: HostPlacement(n, 1+rng.Intn(2))}
	}
	return Config{Ranks: PhiPlacement(machine.Phi0, n, 1+rng.Intn(4))}
}

// TestVecReplayMatchesFullRun is the asymmetric-algorithm exactness
// property: 300 randomized trials aimed at the combinations the scalar
// replay refuses — binomial Bcast (short) and van de Geijn Bcast (past
// BcastLongBytes), plus the non-power-of-two reduce+bcast Allreduce —
// must match the goroutine engine bit for bit.
func TestVecReplayMatchesFullRun(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		var cfg Config
		var kind CollectiveKind
		var msg int
		switch trial % 3 {
		case 0: // binomial Bcast on any world shape
			cfg = randomHomogeneous(rng)
			kind = BcastKind
			msg = 1 + rng.Intn(32<<10)
		case 1: // long-message Bcast: the van de Geijn scatter+allgather
			cfg = randomHomogeneous(rng)
			kind = BcastKind
			msg = 512<<10 + 1 + rng.Intn(1<<20) // past the default BcastLongBytes
		default: // non-power-of-two Allreduce: reduce+bcast
			cfg = randomNonPow2(rng)
			kind = AllreduceKind
			msg = 1 + rng.Intn(32<<10)
		}
		iters := 1 + rng.Intn(3)
		fast, err := CollectiveTime(cfg, kind, msg, iters)
		if err != nil {
			t.Fatalf("trial %d: fast: %v", trial, err)
		}
		var slow vclock.Time
		withSlowPath(func() {
			slow, err = CollectiveTime(cfg, kind, msg, iters)
		})
		if err != nil {
			t.Fatalf("trial %d: slow: %v", trial, err)
		}
		if fast != slow {
			t.Fatalf("trial %d (n=%d dev=%v kind=%v msg=%d iters=%d): fast %v, slow %v",
				trial, len(cfg.Ranks), cfg.Ranks[0].Device, kind, msg, iters, fast, slow)
		}
		checkOpCounters(t, cfg, kind, msg, iters)
	}
}

// randomVecScript builds a script exercising the shapes only the clock
// vector can replay: per-rank compute, per-rank Ring/Pair payloads,
// shifted rings, Bcast steps, and whatever Allreduce regime the world
// size implies.
func randomVecScript(rng *rand.Rand, n int) []SeqStep {
	steps := make([]SeqStep, 0, 4)
	nsteps := 1 + rng.Intn(4)
	for k := 0; k < nsteps; k++ {
		var st SeqStep
		if rng.Intn(2) == 0 {
			per := make([]vclock.Time, n)
			for i := range per {
				per[i] = vclock.Time(rng.Intn(2000)) * vclock.Microsecond
			}
			st.ComputePer = per
		} else {
			st.Compute = vclock.Time(rng.Intn(2000)) * vclock.Microsecond
		}
		switch rng.Intn(5) {
		case 0:
			st.Kind = BcastKind
			st.Bytes = 1 + rng.Intn(16<<10)
		case 1:
			st.Kind = AllreduceKind
			st.Bytes = 8 * (1 + rng.Intn(1<<10))
		case 2:
			st.Kind = RingKind
			st.Shift = rng.Intn(2 * n)
			st.Bytes = 1 + rng.Intn(16<<10)
			if rng.Intn(2) == 0 {
				bp := make([]int, n)
				for i := range bp {
					bp[i] = 64 + rng.Intn(16<<10)
				}
				st.BytesPer = bp
			}
		case 3:
			if n%2 == 0 {
				st.Kind = PairKind
				st.Bytes = 1 + rng.Intn(16<<10)
				if rng.Intn(2) == 0 {
					bp := make([]int, n)
					for i := range bp {
						bp[i] = 64 + rng.Intn(16<<10)
					}
					st.BytesPer = bp
				}
			} else {
				st.Kind = AllgatherKind
				st.Bytes = 1 + rng.Intn(8<<10)
			}
		default:
			st.Kind = ComputeStep
		}
		steps = append(steps, st)
	}
	return steps
}

// TestVecSeqScriptsMatchFullRun pins the script-level vector replay —
// the OVERFLOW step shape (per-rank compute, per-rank fringe sizes,
// shifted rings, a residual allreduce) — against the goroutine engine
// over randomized worlds and scripts.
func TestVecSeqScriptsMatchFullRun(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 120; trial++ {
		var cfg Config
		if trial%2 == 0 {
			cfg = randomHomogeneous(rng)
		} else {
			cfg = randomNonPow2(rng)
		}
		n := len(cfg.Ranks)
		steps := randomVecScript(rng, n)
		iters := 1 + rng.Intn(3)
		fast, err := SeqTime(cfg, steps, iters)
		if err != nil {
			t.Fatalf("trial %d: fast: %v", trial, err)
		}
		var slow vclock.Time
		withSlowPath(func() {
			slow, err = SeqTime(cfg, steps, iters)
		})
		if err != nil {
			t.Fatalf("trial %d: slow: %v", trial, err)
		}
		if fast != slow {
			t.Fatalf("trial %d (n=%d dev=%v steps=%+v iters=%d): fast %v, slow %v",
				trial, n, cfg.Ranks[0].Device, steps, iters, fast, slow)
		}
		checkSeqCounters(t, cfg, steps, iters)
	}

	// Mid-script switches: a symmetric prefix the replay prices on its
	// one uniform clock, then a step that expands it to the full clock
	// vector. Every other trial runs under a plan that injects nothing,
	// which must replay like the healthy machine it is.
	rng = rand.New(rand.NewSource(43))
	for trial := 0; trial < 120; trial++ {
		var cfg Config
		if trial%4 < 2 {
			cfg = randomHomogeneous(rng)
		} else {
			cfg = randomNonPow2(rng)
		}
		var opts []Option
		if trial%2 == 1 {
			opts = append(opts, WithFaultPlan(&simfault.Plan{}))
		}
		n := len(cfg.Ranks)
		steps := randomSwitchScript(rng, n)
		iters := 1 + rng.Intn(3)
		withFastPath(func() {
			w, err := NewWorld(cfg, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := w.RepeatSeq(steps, iters); !ok {
				t.Fatalf("switch trial %d: replay refused (n=%d steps=%+v)", trial, n, steps)
			}
		})
		fast, err := SeqTime(cfg, steps, iters, opts...)
		if err != nil {
			t.Fatalf("switch trial %d: fast: %v", trial, err)
		}
		var slow vclock.Time
		withSlowPath(func() {
			slow, err = SeqTime(cfg, steps, iters, opts...)
		})
		if err != nil {
			t.Fatalf("switch trial %d: slow: %v", trial, err)
		}
		if fast != slow {
			t.Fatalf("switch trial %d (n=%d dev=%v steps=%+v iters=%d): fast %v, slow %v",
				trial, n, cfg.Ranks[0].Device, steps, iters, fast, slow)
		}
		checkSeqCounters(t, cfg, steps, iters)
	}
}

// randomSwitchScript builds a script whose symmetric prefix — uniform
// compute with Allgather, Ring or Alltoall — keeps every rank clock
// equal, and whose last step breaks that: a Bcast, a ComputePer of two
// or more entries, or per-rank ring payloads.
func randomSwitchScript(rng *rand.Rand, n int) []SeqStep {
	steps := make([]SeqStep, 0, 4)
	for k := 1 + rng.Intn(3); k > 0; k-- {
		st := SeqStep{Compute: vclock.Time(rng.Intn(2000)) * vclock.Microsecond}
		switch rng.Intn(3) {
		case 0:
			st.Kind = AllgatherKind
			st.Bytes = 1 + rng.Intn(8<<10)
		case 1:
			st.Kind = RingKind
			st.Shift = rng.Intn(2 * n)
			st.Bytes = 1 + rng.Intn(16<<10)
		default:
			st.Kind = AlltoallKind
			st.Bytes = 1 + rng.Intn(4<<10)
		}
		steps = append(steps, st)
	}
	var last SeqStep
	switch rng.Intn(3) {
	case 0:
		last = SeqStep{Kind: BcastKind, Bytes: 1 + rng.Intn(16<<10)}
	case 1:
		per := make([]vclock.Time, 2+rng.Intn(n-1))
		for i := range per {
			per[i] = vclock.Time(rng.Intn(2000)) * vclock.Microsecond
		}
		last = SeqStep{ComputePer: per, Kind: RingKind, Bytes: 1 + rng.Intn(16<<10)}
	default:
		bp := make([]int, n)
		for i := range bp {
			bp[i] = 64 + rng.Intn(16<<10)
		}
		last = SeqStep{Kind: RingKind, Shift: rng.Intn(2 * n), BytesPer: bp}
	}
	return append(steps, last)
}

// TestVecSeqReplayEngages asserts the vector script path actually
// prices the OVERFLOW shapes in closed form (not via goroutine
// fallback): per-rank compute and per-rank ring payloads on flat
// symmetric worlds must be accepted by RepeatSeq.
func TestVecSeqReplayEngages(t *testing.T) {
	withFastPath(func() {
		w, err := NewWorld(Config{Ranks: HostPlacement(5, 1), SizeOnlyPayloads: true})
		if err != nil {
			t.Fatal(err)
		}
		steps := []SeqStep{
			{ComputePer: []vclock.Time{1, 2, 3, 4, 5}, Kind: ComputeStep},
			{Kind: RingKind, Shift: 2, BytesPer: []int{64, 128, 256, 512, 1024}},
			{Kind: AllreduceKind, Bytes: 8},
		}
		if _, ok := w.RepeatSeq(steps, 1); !ok {
			t.Error("vector replay refused the OVERFLOW step shape on a flat symmetric world")
		}
	})
}

// TestVecReplayRefusals pins the vector replay's fallback conditions:
// heterogeneous placement, fault plans, single-rank worlds, odd-size
// PairKind, per-rank payloads on rack worlds, and the escape hatch all
// keep the goroutine engine reachable.
func TestVecReplayRefusals(t *testing.T) {
	prev := noFastPathEnv
	noFastPathEnv = false
	defer func() { noFastPathEnv = prev }()
	bcast := []SeqStep{{Kind: BcastKind, Bytes: 64}}

	mixed := Config{Ranks: append(HostPlacement(2, 1), PhiPlacement(machine.Phi0, 2, 1)...)}
	wm, err := NewWorld(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wm.RepeatSeq(bcast, 1); ok {
		t.Error("vector replay accepted a heterogeneous world")
	}
	faulted, err := NewWorld(Config{Ranks: HostPlacement(4, 1)}, WithFaultPlan(simfault.PhiStraggler()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := faulted.RepeatSeq(bcast, 1); ok {
		t.Error("vector replay accepted a faulted world")
	}
	w1, err := NewWorld(Config{Ranks: HostPlacement(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w1.RepeatSeq(bcast, 1); ok {
		t.Error("vector replay accepted a single-rank world")
	}
	odd, err := NewWorld(Config{Ranks: HostPlacement(5, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := odd.RepeatSeq([]SeqStep{{Kind: PairKind, Bytes: 64}}, 1); ok {
		t.Error("vector replay paired id^1 in an odd world")
	}
	rack, err := NewWorld(Config{
		Ranks:  RackPlacement(machine.Host, 4, 2, 1),
		Fabric: machine.NewRackFabric(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	perRank := []SeqStep{{Kind: PairKind, BytesPer: []int{64, 128}}}
	if _, ok := rack.RepeatSeq(perRank, 1); ok {
		t.Error("rack replay accepted per-rank payload sizes")
	}
	w, err := NewWorld(Config{Ranks: HostPlacement(4, 1)})
	if err != nil {
		t.Fatal(err)
	}
	withSlowPath(func() {
		if _, ok := w.RepeatSeq(bcast, 1); ok {
			t.Error("vector replay ignored the MAIA_NO_FASTPATH escape hatch")
		}
	})
}

// TestVecReplayAllocsIndependentOfIters pins the vector replay's
// defining property: pricing 4096 binomial broadcasts must not
// allocate more than pricing 4 — state is one clock vector, not
// per-iteration messages.
func TestVecReplayAllocsIndependentOfIters(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; bound asserted in normal builds")
	}
	repeatAllocs := func(iters int) float64 {
		w, err := NewWorld(Config{Ranks: HostPlacement(6, 1)})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, ok := w.RepeatOp(BcastKind, 4096, iters); !ok {
				t.Fatal("vector replay refused a homogeneous Bcast")
			}
		})
	}
	var base, more float64
	withFastPath(func() { base, more = repeatAllocs(4), repeatAllocs(4096) })
	if more > base {
		t.Errorf("vector replay allocs grew with iters: %v at 4 iters, %v at 4096", base, more)
	}
}

// TestRefusedCombosFallBackIdentically pins the other half of the
// refusal contract: combinations the replay refuses — heterogeneous
// placement and faulted worlds, crossed with non-power-of-two sizes —
// answer through the goroutine engine whether or not the fast path is
// enabled, byte-identically. A regression that made a refused world
// sneak into the replay (or perturbed the fallback) trips this.
func TestRefusedCombosFallBackIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	kinds := []CollectiveKind{BcastKind, AllreduceKind, AllgatherKind, AlltoallKind}
	for trial := 0; trial < 40; trial++ {
		var cfg Config
		var opts []Option
		if trial%2 == 0 {
			// Heterogeneous: a host half and a Phi half, odd total size.
			cfg = Config{Ranks: append(HostPlacement(2, 1), PhiPlacement(machine.Phi0, 1+rng.Intn(3), 2)...)}
		} else {
			cfg = randomNonPow2(rng)
			opts = append(opts, WithFaultPlan(simfault.PhiStraggler()))
		}
		kind := kinds[rng.Intn(len(kinds))]
		msg := 1 + rng.Intn(16<<10)
		var fast, slow vclock.Time
		var errF, errS error
		withFastPath(func() { fast, errF = CollectiveTime(cfg, kind, msg, 1, opts...) })
		withSlowPath(func() { slow, errS = CollectiveTime(cfg, kind, msg, 1, opts...) })
		if errF != nil || errS != nil {
			t.Fatalf("trial %d: fast err %v, slow err %v", trial, errF, errS)
		}
		if fast != slow {
			t.Fatalf("trial %d (n=%d kind=%v msg=%d): fast-path-on %v != off %v",
				trial, len(cfg.Ranks), kind, msg, fast, slow)
		}
	}
}
