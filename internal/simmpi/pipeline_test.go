package simmpi

import (
	"math/rand"
	"testing"

	"maia/internal/machine"
	"maia/internal/simfault"
	"maia/internal/vclock"
)

// pipelineBody is the goroutine-engine wavefront the replay is pinned
// against: LU's per-iteration shape (receive the upstream boundary,
// compute, send downstream).
func pipelineBody(msg, rounds int, compute vclock.Time) func(r *Rank) {
	return func(r *Rank) {
		n, id := r.Size(), r.ID()
		buf := GetPayload(msg)
		for p := 0; p < rounds; p++ {
			if id > 0 {
				Recycle(r.Recv(id-1, p))
			}
			r.Compute(compute)
			if id < n-1 {
				r.Send(id+1, p, buf)
			}
		}
		Recycle(buf)
	}
}

// TestRepeatPipelineMatchesFullRun is the wavefront exactness property:
// the clock-vector replay must reproduce the goroutine run's makespan
// BIT for bit over randomized homogeneous worlds, message sizes that
// cross the eager/rendezvous threshold, and round counts that cover
// both the fill and the steady phase of the pipeline.
func TestRepeatPipelineMatchesFullRun(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 150; trial++ {
		cfg := randomHomogeneous(rng)
		cfg.SizeOnlyPayloads = true
		msg := 1 + rng.Intn(32<<10)
		rounds := 1 + rng.Intn(8)
		compute := vclock.Time(rng.Float64() * 5e4)
		var fast vclock.Time
		var ok bool
		withFastPath(func() {
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			fast, ok = w.RepeatPipeline(msg, rounds, compute)
		})
		if !ok {
			t.Fatalf("trial %d: replay refused a homogeneous %d-rank world", trial, len(cfg.Ranks))
		}
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := w.Run(pipelineBody(msg, rounds, compute)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if slow := w.MaxTime(); fast != slow {
			t.Fatalf("trial %d (n=%d msg=%d rounds=%d compute=%v): fast %v, slow %v",
				trial, len(cfg.Ranks), msg, rounds, compute, fast, slow)
		}
		checkCounters(t, cfg,
			func(w *World) bool { _, ok := w.RepeatPipeline(msg, rounds, compute); return ok },
			func(w *World) error { return w.Run(pipelineBody(msg, rounds, compute)) })
	}
}

// TestRingSeqMatchesFullRun pins the RingKind step: the shifted-neighbor
// exchange must replay bit-identically on any world size, including the
// odd sizes PairKind refuses (BT/SP's 121/169/225-rank grids).
func TestRingSeqMatchesFullRun(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 150; trial++ {
		cfg := randomHomogeneous(rng)
		cfg.SizeOnlyPayloads = true
		steps := []SeqStep{
			{Compute: vclock.Time(rng.Float64() * 1e4), Kind: RingKind, Bytes: 1 + rng.Intn(16<<10)},
			{Kind: RingKind, Bytes: 1 + rng.Intn(16<<10)},
		}
		iters := 1 + rng.Intn(3)
		var fast vclock.Time
		var ok bool
		withFastPath(func() {
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			fast, ok = w.RepeatSeq(steps, iters)
		})
		if !ok {
			t.Fatalf("trial %d: replay refused a homogeneous %d-rank ring", trial, len(cfg.Ranks))
		}
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := w.RunSeq(steps, iters); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if slow := w.MaxTime(); fast != slow {
			t.Fatalf("trial %d (n=%d iters=%d): fast %v, slow %v",
				trial, len(cfg.Ranks), iters, fast, slow)
		}
		checkSeqCounters(t, cfg, steps, iters)
	}
}

// TestRepeatPipelineRefusals pins the fallback conditions that keep the
// goroutine engine reachable.
func TestRepeatPipelineRefusals(t *testing.T) {
	withFastPath(func() {
		homog := Config{Ranks: HostPlacement(4, 1)}
		w, err := NewWorld(homog)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := w.RepeatPipeline(64, 2, 1); !ok {
			t.Error("refused a homogeneous pipeline")
		}
		mixed := Config{Ranks: append(HostPlacement(2, 1), PhiPlacement(machine.Phi0, 2, 1)...)}
		wm, err := NewWorld(mixed)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := wm.RepeatPipeline(64, 2, 1); ok {
			t.Error("replayed a heterogeneous world")
		}
		faulted, err := NewWorld(homog, WithFaultPlan(simfault.PhiStraggler()))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := faulted.RepeatPipeline(64, 2, 1); ok {
			t.Error("replayed a faulted world")
		}
		w1, err := NewWorld(Config{Ranks: HostPlacement(1, 1)})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := w1.RepeatPipeline(64, 2, 1); ok {
			t.Error("replayed a single-rank world")
		}
		withSlowPath(func() {
			if _, ok := w.RepeatPipeline(64, 2, 1); ok {
				t.Error("ignored the MAIA_NO_FASTPATH escape hatch")
			}
		})
	})
}
