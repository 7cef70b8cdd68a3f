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
		buf := make([]byte, msg)
		for p := 0; p < rounds; p++ {
			if id > 0 {
				r.Recv(id-1, p)
			}
			r.Compute(compute)
			if id < n-1 {
				r.Send(id+1, p, buf)
			}
		}
	}
}

// pipelineScript is the PipelineKind script of pipelineBody: one step
// per round.
func pipelineScript(msg, rounds int, compute vclock.Time) []SeqStep {
	steps := make([]SeqStep, rounds)
	for p := range steps {
		steps[p] = SeqStep{Compute: compute, Kind: PipelineKind, Bytes: msg}
	}
	return steps
}

// TestPipelineSeqMatchesFullRun is the wavefront exactness property:
// over randomized homogeneous worlds, message sizes that cross the
// eager/rendezvous threshold, and round counts that cover both the fill
// and the steady phase of the pipeline, both engines of a PipelineKind
// script — the clock-vector replay (RepeatSeq) and the goroutine
// engine (RunSeq) — must reproduce the hand-written pipelineBody's
// makespan BIT for bit. A mixed script (ring, per-rank-compute pipeline
// rounds, allreduce) pins the replay's hand-off into and out of the
// pipeline against RunSeq.
func TestPipelineSeqMatchesFullRun(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 150; trial++ {
		cfg := randomHomogeneous(rng)
		cfg.SizeOnlyPayloads = true
		msg := 1 + rng.Intn(32<<10)
		rounds := 1 + rng.Intn(8)
		compute := vclock.Time(rng.Float64() * 5e4)
		steps := pipelineScript(msg, rounds, compute)

		ref, err := NewWorld(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := ref.Run(pipelineBody(msg, rounds, compute)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := ref.MaxTime()

		var fast vclock.Time
		var ok bool
		withFastPath(func() {
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			fast, ok = w.RepeatSeq(steps, 1)
		})
		if !ok {
			t.Fatalf("trial %d: replay refused a homogeneous %d-rank world", trial, len(cfg.Ranks))
		}
		slow, err := NewWorld(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := slow.RunSeq(steps, 1); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if fast != want || slow.MaxTime() != want {
			t.Fatalf("trial %d (n=%d msg=%d rounds=%d compute=%v): replay %v, RunSeq %v, pipelineBody %v",
				trial, len(cfg.Ranks), msg, rounds, compute, fast, slow.MaxTime(), want)
		}
		checkCounters(t, cfg,
			func(w *World) bool { _, ok := w.RepeatSeq(steps, 1); return ok },
			func(w *World) error { return w.Run(pipelineBody(msg, rounds, compute)) })

		per := make([]vclock.Time, 1+rng.Intn(3))
		for i := range per {
			per[i] = vclock.Time(rng.Float64() * 5e4)
		}
		mixed := []SeqStep{
			{Compute: compute, Kind: RingKind, Bytes: msg},
			{ComputePer: per, Kind: PipelineKind, Bytes: msg},
			{Kind: PipelineKind, Bytes: 1 + rng.Intn(32<<10)},
			{Kind: AllreduceKind, Bytes: 8},
		}
		iters := 1 + rng.Intn(2)
		withFastPath(func() {
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			fast, ok = w.RepeatSeq(mixed, iters)
		})
		if !ok {
			t.Fatalf("trial %d: replay refused a mixed pipeline script", trial)
		}
		ws, err := NewWorld(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := ws.RunSeq(mixed, iters); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if fast != ws.MaxTime() {
			t.Fatalf("trial %d (n=%d, mixed x%d): replay %v, RunSeq %v", trial, len(cfg.Ranks), iters, fast, ws.MaxTime())
		}
		checkSeqCounters(t, cfg, mixed, iters)
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

// TestPipelineSeqRefusals pins the fallback conditions that keep the
// goroutine engine reachable for a pipeline script.
func TestPipelineSeqRefusals(t *testing.T) {
	steps := pipelineScript(64, 2, 1)
	withFastPath(func() {
		homog := Config{Ranks: HostPlacement(4, 1)}
		w, err := NewWorld(homog)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := w.RepeatSeq(steps, 1); !ok {
			t.Error("refused a homogeneous pipeline")
		}
		mixed := Config{Ranks: append(HostPlacement(2, 1), PhiPlacement(machine.Phi0, 2, 1)...)}
		wm, err := NewWorld(mixed)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := wm.RepeatSeq(steps, 1); ok {
			t.Error("replayed a heterogeneous world")
		}
		rack, err := NewWorld(Config{Ranks: RackPlacement(machine.Host, 2, 2, 1), Fabric: machine.NewRackFabric(2)})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := rack.RepeatSeq(steps, 1); ok {
			t.Error("replayed a pipeline on a rack world")
		}
		faulted, err := NewWorld(homog, WithFaultPlan(simfault.PhiStraggler()))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := faulted.RepeatSeq(steps, 1); ok {
			t.Error("replayed a faulted world")
		}
		w1, err := NewWorld(Config{Ranks: HostPlacement(1, 1)})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := w1.RepeatSeq(steps, 1); ok {
			t.Error("replayed a single-rank world")
		}
		withSlowPath(func() {
			if _, ok := w.RepeatSeq(steps, 1); ok {
				t.Error("ignored the MAIA_NO_FASTPATH escape hatch")
			}
		})
	})
}

// TestPipelineSeqValidation pins what RunSeq and SeqTime accept for a
// PipelineKind step: a line of one rank only computes, and per-rank
// payloads (BytesPer, a Pair/Ring shape) are rejected.
func TestPipelineSeqValidation(t *testing.T) {
	w1, err := NewWorld(Config{Ranks: HostPlacement(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := w1.RunSeq(pipelineScript(64, 3, 5), 1); err != nil {
		t.Fatalf("single-rank pipeline: %v", err)
	}
	if got := w1.MaxTime(); got != 15 {
		t.Errorf("single-rank pipeline took %v, want 15 (compute only)", got)
	}
	bad := []SeqStep{{Kind: PipelineKind, BytesPer: []int{64, 128}}}
	w, err := NewWorld(Config{Ranks: HostPlacement(4, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunSeq(bad, 1); err == nil {
		t.Error("RunSeq accepted BytesPer on a pipeline step")
	}
	if _, err := SeqTime(Config{Ranks: HostPlacement(4, 1)}, bad, 1); err == nil {
		t.Error("SeqTime accepted BytesPer on a pipeline step")
	}
}
