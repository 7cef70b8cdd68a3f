package simmpi

import (
	"fmt"

	"maia/internal/vclock"
)

// SeqStep is one step of a communication-pattern script: optional
// compute followed by one operation. A script is the only description
// of a priced MPI pattern: the IMB loops (CollectiveTime,
// RingBandwidth), the NPB iterations and the OVERFLOW steps are all
// scripts of a few SeqSteps. RepeatSeq replays a script in closed form;
// RunSeq runs it on the goroutine engine, the replay's reference and
// the only path where the replay refuses. SeqTime picks between them.
type SeqStep struct {
	// Compute is charged to every rank before the operation (for
	// PipelineKind, between its receive and its send).
	Compute vclock.Time
	// ComputePer, when non-nil, charges rank i ComputePer[i%len] —
	// with len == ranksPerNode this is per-local-index compute,
	// identical across nodes (the OVERFLOW host/Phi imbalance shape).
	// It overrides Compute.
	ComputePer []vclock.Time
	// Kind selects the operation: BcastKind, AllreduceKind,
	// AllgatherKind, AlltoallKind, PairKind, RingKind, ComputeStep, or
	// PipelineKind.
	Kind CollectiveKind
	// Bytes is the per-rank payload: the block size for
	// Allgather/Alltoall, the vector bytes for Allreduce, the message
	// size for Pair/Ring exchanges and pipeline rounds. Ignored by
	// ComputeStep.
	Bytes int
	// BytesPer, when non-nil, gives rank i a BytesPer[i%len]-byte
	// payload instead of Bytes — the OVERFLOW fringe shape, where each
	// rank's exchange volume tracks its zone load. Valid only for
	// PairKind and RingKind (collectives take one uniform size).
	BytesPer []int
	// Shift is RingKind's exchange distance: rank i sends to
	// (i+Shift)%size and receives from (i-Shift+size)%size. Zero (and
	// any multiple of the world size) shifts by one — a rank never
	// exchanges with itself.
	Shift int
}

// validateSeq rejects scripts no engine (replay or goroutine) can run.
func (w *World) validateSeq(steps []SeqStep) error {
	for i, st := range steps {
		if st.Bytes < 0 || st.Compute < 0 {
			return fmt.Errorf("simmpi: step %d has negative cost", i)
		}
		if st.ComputePer != nil && len(st.ComputePer) == 0 {
			return fmt.Errorf("simmpi: step %d has empty ComputePer", i)
		}
		if st.Shift < 0 {
			return fmt.Errorf("simmpi: step %d has negative Shift", i)
		}
		if st.BytesPer != nil {
			if st.Kind != PairKind && st.Kind != RingKind {
				return fmt.Errorf("simmpi: step %d sets BytesPer on %v (Pair/Ring only)", i, st.Kind)
			}
			if len(st.BytesPer) == 0 {
				return fmt.Errorf("simmpi: step %d has empty BytesPer", i)
			}
			for _, b := range st.BytesPer {
				if b < 0 {
					return fmt.Errorf("simmpi: step %d has negative BytesPer entry", i)
				}
			}
		}
		switch st.Kind {
		case ComputeStep, BcastKind, AllreduceKind, AllgatherKind, AlltoallKind, PipelineKind:
		case PairKind:
			if w.size%2 != 0 {
				return fmt.Errorf("simmpi: step %d pairs id^1 in an odd %d-rank world", i, w.size)
			}
		case RingKind:
			if w.size < 2 {
				return fmt.Errorf("simmpi: step %d ring-exchanges in a %d-rank world", i, w.size)
			}
		default:
			return fmt.Errorf("simmpi: step %d has unknown kind %v", i, st.Kind)
		}
	}
	return nil
}

// seqBody is the goroutine-engine execution of a script: the fallback
// the replay is pinned against, and the only path under fault plans or
// MAIA_NO_FASTPATH. It drives the transport's payload values directly,
// so a size-only world moves lengths and allocates no message bytes.
func seqBody(r *Rank, steps []SeqStep, iters int) {
	n, id := r.Size(), r.ID()
	for it := 0; it < iters; it++ {
		for _, st := range steps {
			if st.Kind == PipelineKind && id > 0 {
				r.recv(id-1, 0)
			}
			if c := stepCompute(id, st.Compute, st.ComputePer); c > 0 {
				r.Compute(c)
			}
			switch st.Kind {
			case ComputeStep:
			case PipelineKind:
				if id < n-1 {
					r.send(id+1, 0, r.w.alloc(st.Bytes))
				}
			case PairKind:
				partner := id ^ 1
				r.send(partner, 0, r.w.alloc(stepRankBytes(id, st.Bytes, st.BytesPer)))
				r.recv(partner, 0)
			case RingKind:
				sh := seqShift(st, n)
				r.send((id+sh)%n, 0, r.w.alloc(stepRankBytes(id, st.Bytes, st.BytesPer)))
				r.recv((id-sh+n)%n, 0)
			case BcastKind:
				r.bcast(0, r.w.alloc(st.Bytes))
			case AllreduceKind:
				// A vector of at least one element, carried as its length.
				r.allreduce(payload{n: 8 * max(st.Bytes/8, 1)}, OpSum)
			case AllgatherKind:
				r.allgather(r.w.alloc(st.Bytes))
			case AlltoallKind:
				r.alltoall(r.w.alloc(n*st.Bytes), st.Bytes)
			}
		}
	}
}

// RunSeq executes a script on the goroutine engine (one goroutine per
// rank). Most callers want SeqTime, which replays when it can.
func (w *World) RunSeq(steps []SeqStep, iters int) error {
	if err := w.validateSeq(steps); err != nil {
		return err
	}
	return w.Run(func(r *Rank) { seqBody(r, steps, iters) })
}

// stepCompute resolves rank j's compute charge for a step. It takes
// the step's fields, not the step: even inlined, a SeqStep argument is
// copied per call, and that copy dominated the pipeline replay's
// per-rank loop.
func stepCompute(j int, compute vclock.Time, computePer []vclock.Time) vclock.Time {
	if computePer != nil {
		return computePer[j%len(computePer)]
	}
	return compute
}

// stepRankBytes resolves rank j's payload size for a Pair/Ring step.
func stepRankBytes(j, bytes int, bytesPer []int) int {
	if bytesPer != nil {
		return bytesPer[j%len(bytesPer)]
	}
	return bytes
}

// seqShift resolves a RingKind step's effective shift: Shift modulo the
// world size, shifting by one when that is zero (a rank never exchanges
// with itself) — the same normalization seqBody applies.
func seqShift(st SeqStep, n int) int {
	sh := st.Shift % n
	if sh == 0 {
		sh = 1
	}
	return sh
}

// SeqTime builds a world and prices a script run of iters iterations:
// in closed form when the replay qualifies (rack worlds of identical
// nodes, flat symmetric worlds), on the goroutine engine otherwise.
// Scripts never read payload contents, so the world runs size-only.
// With a tracer attached the replay emits one aggregated span — rack
// experiments stay traceable without goroutine-running ~17k ranks.
func SeqTime(cfg Config, steps []SeqStep, iters int, opts ...Option) (vclock.Time, error) {
	cfg.SizeOnlyPayloads = true
	w, err := NewWorld(cfg, opts...)
	if err != nil {
		return 0, err
	}
	if err := w.validateSeq(steps); err != nil {
		return 0, err
	}
	if total, ok := w.RepeatSeq(steps, iters); ok {
		return total, nil
	}
	if err := w.RunSeq(steps, iters); err != nil {
		return 0, err
	}
	return w.MaxTime(), nil
}
