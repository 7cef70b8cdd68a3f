package simmpi

import (
	"fmt"

	"maia/internal/machine"
	"maia/internal/vclock"
)

// This file holds the IMB-style micro-benchmarks behind Figures 10–14,
// plus the memory-footprint model that explains why MPI_Alltoall (and NPB
// FT) could not run at large sizes on the Phi's 8 GB card.

// RingBandwidth runs the Figure 10 benchmark: every rank sends a message
// to its right neighbor and receives one from its left neighbor, for
// iters iterations. It returns the per-rank bandwidth in GB/s.
func RingBandwidth(cfg Config, msgBytes, iters int, opts ...Option) (float64, error) {
	total, err := benchTime(cfg, SeqStep{Kind: RingKind, Bytes: msgBytes}, iters, opts)
	if err != nil {
		return 0, err
	}
	t := total.Seconds()
	if t <= 0 {
		return 0, fmt.Errorf("simmpi: ring benchmark consumed no virtual time")
	}
	return float64(msgBytes) * float64(iters) / t / 1e9, nil
}

// CollectiveKind selects the operation of a SeqStep. CollectiveTime
// and RingBandwidth measure one-step scripts of it.
type CollectiveKind int

const (
	// BcastKind measures MPI_Bcast (Figure 11).
	BcastKind CollectiveKind = iota
	// AllreduceKind measures MPI_Allreduce (Figure 12).
	AllreduceKind
	// AllgatherKind measures MPI_Allgather (Figure 13).
	AllgatherKind
	// AlltoallKind measures MPI_AlltoAll (Figure 14).
	AlltoallKind
	// PairKind is a Sendrecv exchange with partner id^1 — the halo
	// shape of the NPB communication scripts. It needs an even world.
	PairKind
	// RingKind is a Sendrecv exchange sending to (id+Shift)%n and
	// receiving from (id-Shift+n)%n — the shifted-neighbor halo of MG's
	// level sweeps, BT/SP's directional face exchanges and Figure 10's
	// ring. Works on any world of two or more ranks (no parity
	// constraint, unlike PairKind).
	RingKind
	// ComputeStep is a SeqStep that performs no communication.
	ComputeStep
	// PipelineKind is one wavefront round on the line of ranks — LU's
	// hyperplane sweep: rank i>0 receives Bytes from rank i-1, then
	// charges the step's compute, then rank i<n-1 sends Bytes to rank
	// i+1. Unlike every other kind, the compute falls between the
	// receive and the send.
	PipelineKind
)

// String implements fmt.Stringer with the paper's MPI function names.
func (k CollectiveKind) String() string {
	switch k {
	case BcastKind:
		return "MPI_Bcast"
	case AllreduceKind:
		return "MPI_Allreduce"
	case AllgatherKind:
		return "MPI_Allgather"
	case AlltoallKind:
		return "MPI_AlltoAll"
	case PairKind:
		return "MPI_Sendrecv"
	case RingKind:
		return "MPI_Sendrecv(ring)"
	case ComputeStep:
		return "compute"
	case PipelineKind:
		return "MPI_Recv+MPI_Send(pipeline)"
	default:
		return fmt.Sprintf("CollectiveKind(%d)", int(k))
	}
}

// CollectiveTime measures the average virtual time of one collective
// operation at the given message size (per-rank payload, as in IMB),
// averaged over iters repetitions.
func CollectiveTime(cfg Config, kind CollectiveKind, msgBytes, iters int, opts ...Option) (vclock.Time, error) {
	total, err := benchTime(cfg, SeqStep{Kind: kind, Bytes: msgBytes}, iters, opts)
	if err != nil {
		return 0, err
	}
	return total / vclock.Time(iters), nil
}

// benchTime prices iters repetitions of one script step, the loop of an
// IMB benchmark. Results are never read, so the world runs
// size-only. Untraced runs replay in closed form when they can; unlike
// SeqTime, a traced run always takes the goroutine engine (RunSeq), so
// the trace keeps one span per operation.
func benchTime(cfg Config, st SeqStep, iters int, opts []Option) (vclock.Time, error) {
	cfg.SizeOnlyPayloads = true
	w, err := NewWorld(cfg, opts...)
	if err != nil {
		return 0, err
	}
	// Two literals: the replay's stays on the stack, and only the
	// fallback's escapes into the rank goroutines.
	if w.cfg.Tracer == nil {
		if total, ok := w.RepeatSeq([]SeqStep{st}, iters); ok {
			return total, nil
		}
	}
	if err := w.RunSeq([]SeqStep{st}, iters); err != nil {
		return 0, err
	}
	return w.MaxTime(), nil
}

// Memory-footprint model (Section 6.4.5 / Figure 14; Section 6.8.2 /
// Figure 20). Intel MPI on the Phi carries a substantial fixed per-rank
// footprint, and Alltoall adds send+receive staging buffers proportional
// to ranks x block size.
const (
	// baseRankBytes is the fixed per-rank MPI footprint.
	baseRankBytes = 25 << 20
	// alltoallBufFactor covers the send buffer, the receive buffer, and
	// the library's internal staging copy.
	alltoallBufFactor = 3
)

// AlltoallFootprint estimates the total memory an n-rank Alltoall with
// the given per-block size needs on one device.
func AlltoallFootprint(ranks, blockBytes int) int64 {
	perRank := int64(baseRankBytes) + int64(2*alltoallBufFactor)*int64(ranks)*int64(blockBytes)
	return int64(ranks) * perRank
}

// AlltoallFeasible reports whether the Alltoall fits in the memory of the
// device all ranks live on. The paper's Figure 14 failure — 236 ranks
// could run only up to 4 KB blocks on the 8 GB card — falls out of the
// footprint model.
func AlltoallFeasible(dev machine.Device, node *machine.Node, ranks, blockBytes int) bool {
	var memBytes int64
	if dev.IsPhi() {
		memBytes = int64(node.PhiProc.MemGB) << 30
	} else {
		memBytes = int64(node.HostMemGB) << 30
	}
	return AlltoallFootprint(ranks, blockBytes) <= memBytes
}
