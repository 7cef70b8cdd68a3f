package simmpi

import (
	"math/rand"
	"testing"

	"maia/internal/machine"
	"maia/internal/simfault"
	"maia/internal/simtrace"
	"maia/internal/vclock"
)

// withSlowPath runs fn with the repeated-op fast path disabled, as if
// MAIA_NO_FASTPATH were set.
func withSlowPath(fn func()) {
	prev := noFastPathEnv
	noFastPathEnv = true
	defer func() { noFastPathEnv = prev }()
	fn()
}

// withFastPath runs fn with the fast path force-enabled, so assertions
// that the replay engages still hold when the whole test binary runs
// under MAIA_NO_FASTPATH=1 (the CI slow-path job).
func withFastPath(fn func()) {
	prev := noFastPathEnv
	noFastPathEnv = false
	defer func() { noFastPathEnv = prev }()
	fn()
}

// tracedCounters prices a traced world built from cfg and returns its
// mpi/messages and mpi/bytes counters; price reports whether it priced
// anything (a replay refusal has nothing to count).
func tracedCounters(t *testing.T, cfg Config, price func(w *World) bool) (msgs, bytes int64, ok bool) {
	t.Helper()
	tr := simtrace.New()
	w, err := NewWorld(cfg, WithTracer(tr, "counters"))
	if err != nil {
		t.Fatal(err)
	}
	ok = price(w)
	for _, c := range tr.Counters() {
		switch c.Key {
		case simtrace.CounterKey{Cat: simtrace.CatMPI, Name: "messages"}:
			msgs = c.Value
		case simtrace.CounterKey{Cat: simtrace.CatMPI, Name: "bytes"}:
			bytes = c.Value
		}
	}
	return msgs, bytes, ok
}

// checkCounters pins the replay's trace counters to the goroutine
// engine's: a traced replay must count the same mpi/messages and
// mpi/bytes as a traced full run of the same world. fast prices on the
// replay and reports whether it engaged (a refusal has nothing to pin);
// slow runs the goroutine engine.
func checkCounters(t *testing.T, cfg Config, fast func(w *World) bool, slow func(w *World) error) {
	t.Helper()
	cfg.SizeOnlyPayloads = true
	var fm, fb int64
	var ok bool
	withFastPath(func() { fm, fb, ok = tracedCounters(t, cfg, fast) })
	if !ok {
		return
	}
	sm, sb, _ := tracedCounters(t, cfg, func(w *World) bool {
		if err := slow(w); err != nil {
			t.Fatal(err)
		}
		return true
	})
	if fm != sm || fb != sb {
		t.Fatalf("replay counted %d messages / %d bytes, goroutine run %d / %d", fm, fb, sm, sb)
	}
}

// checkSeqCounters is checkCounters for a script: RepeatSeq against
// RunSeq.
func checkSeqCounters(t *testing.T, cfg Config, steps []SeqStep, iters int) {
	t.Helper()
	checkCounters(t, cfg,
		func(w *World) bool { _, ok := w.RepeatSeq(steps, iters); return ok },
		func(w *World) error { return w.RunSeq(steps, iters) })
}

// checkOpCounters is checkCounters for RepeatOp: the goroutine side
// runs the equivalent one-step script.
func checkOpCounters(t *testing.T, cfg Config, kind CollectiveKind, msg, iters int) {
	t.Helper()
	checkCounters(t, cfg,
		func(w *World) bool { _, ok := w.RepeatOp(kind, msg, iters); return ok },
		func(w *World) error { return w.RunSeq([]SeqStep{{Kind: kind, Bytes: msg}}, iters) })
}

// randomHomogeneous builds a homogeneous world placement.
func randomHomogeneous(rng *rand.Rand) Config {
	sizes := []int{2, 3, 4, 5, 8, 16}
	n := sizes[rng.Intn(len(sizes))]
	if rng.Intn(2) == 0 {
		return Config{Ranks: HostPlacement(n, 1+rng.Intn(2))}
	}
	return Config{Ranks: PhiPlacement(machine.Phi0, n, 1+rng.Intn(4))}
}

// TestRepeatOpMatchesFullRun is the simmpi exactness property: the
// closed-form replay must reproduce the goroutine run's virtual time
// BIT for bit over randomized homogeneous (placement × kind × size ×
// iteration) combinations, spanning the eager/rendezvous threshold and
// both Allgather algorithm regimes. Asymmetric combinations fall back
// to the full run on both sides and compare trivially — which also
// pins that the fallback stays reachable.
func TestRepeatOpMatchesFullRun(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	kinds := []CollectiveKind{BcastKind, AllreduceKind, AllgatherKind, AlltoallKind}
	for trial := 0; trial < 200; trial++ {
		cfg := randomHomogeneous(rng)
		kind := kinds[rng.Intn(len(kinds))]
		msg := 1 + rng.Intn(32<<10) // crosses eager (8K) and allgather (2K) switches
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

// TestRepeatSendrecvMatchesFullRun covers the Figure 10 ring loop.
func TestRepeatSendrecvMatchesFullRun(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		cfg := randomHomogeneous(rng)
		msg := 1 + rng.Intn(32<<10)
		iters := 1 + rng.Intn(4)
		fast, err := RingBandwidth(cfg, msg, iters)
		if err != nil {
			t.Fatalf("trial %d: fast: %v", trial, err)
		}
		var slow float64
		withSlowPath(func() {
			slow, err = RingBandwidth(cfg, msg, iters)
		})
		if err != nil {
			t.Fatalf("trial %d: slow: %v", trial, err)
		}
		if fast != slow {
			t.Fatalf("trial %d (n=%d msg=%d iters=%d): fast %v, slow %v",
				trial, len(cfg.Ranks), msg, iters, fast, slow)
		}
		checkSeqCounters(t, cfg, []SeqStep{{Kind: RingKind, Bytes: msg}}, iters)
	}
}

// TestRepeatOpRefusals pins every fallback condition — heterogeneous
// placement, fault plans, single-rank worlds, the escape hatch — and
// the positive side: asymmetric algorithms (binomial Bcast, the
// non-power-of-two reduce+bcast Allreduce) now price on the clock
// vector instead of refusing.
func TestRepeatOpRefusals(t *testing.T) {
	// Force-enable so the positive assertions hold under MAIA_NO_FASTPATH.
	prev := noFastPathEnv
	noFastPathEnv = false
	defer func() { noFastPathEnv = prev }()
	homog := Config{Ranks: HostPlacement(4, 1)}
	w, err := NewWorld(homog)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.RepeatOp(BcastKind, 64, 1); !ok {
		t.Error("refused the binomial Bcast (clock-vector replayable)")
	}
	if _, ok := w.RepeatOp(AllreduceKind, 64, 1); !ok {
		t.Error("refused a power-of-two Allreduce")
	}
	w3, err := NewWorld(Config{Ranks: HostPlacement(3, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w3.RepeatOp(AllreduceKind, 64, 1); !ok {
		t.Error("refused the reduce+bcast Allreduce (clock-vector replayable)")
	}
	mixed := Config{Ranks: append(HostPlacement(2, 1), PhiPlacement(machine.Phi0, 2, 1)...)}
	wm, err := NewWorld(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wm.RepeatOp(AllgatherKind, 64, 1); ok {
		t.Error("replayed a heterogeneous world")
	}
	faulted, err := NewWorld(homog, WithFaultPlan(simfault.PhiStraggler()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := faulted.RepeatOp(AllgatherKind, 64, 1); ok {
		t.Error("replayed a faulted world")
	}
	w1, err := NewWorld(Config{Ranks: HostPlacement(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w1.RepeatOp(AllgatherKind, 64, 1); ok {
		t.Error("replayed a single-rank world")
	}
	withSlowPath(func() {
		if _, ok := w.RepeatOp(AllgatherKind, 64, 1); ok {
			t.Error("ignored the MAIA_NO_FASTPATH escape hatch")
		}
	})
}
