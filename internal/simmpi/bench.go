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
	// The benchmark never reads payload contents, so the transport can
	// run in size-only mode; the measured virtual times are unchanged.
	cfg.SizeOnlyPayloads = true
	w, err := NewWorld(cfg, opts...)
	if err != nil {
		return 0, err
	}
	// Symmetric homogeneous rings are priced in closed form (a one-step
	// ring script); tracing-on runs keep the full path so per-operation
	// traces are unchanged.
	if w.cfg.Tracer == nil {
		if total, ok := w.RepeatSeq([]SeqStep{{Kind: RingKind, Bytes: msgBytes}}, iters); ok {
			t := total.Seconds()
			if t <= 0 {
				return 0, fmt.Errorf("simmpi: ring benchmark consumed no virtual time")
			}
			return float64(msgBytes) * float64(iters) / t / 1e9, nil
		}
	}
	payload := make([]byte, msgBytes)
	err = w.Run(func(r *Rank) {
		n := r.Size()
		right := (r.ID() + 1) % n
		left := (r.ID() - 1 + n) % n
		for i := 0; i < iters; i++ {
			Recycle(r.Sendrecv(right, 0, payload, left, 0))
		}
	})
	if err != nil {
		return 0, err
	}
	t := w.MaxTime().Seconds()
	if t <= 0 {
		return 0, fmt.Errorf("simmpi: ring benchmark consumed no virtual time")
	}
	return float64(msgBytes) * float64(iters) / t / 1e9, nil
}

// CollectiveKind selects a collective for CollectiveTime.
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
	// shape of the NPB communication scripts. Valid in SeqStep scripts,
	// not in CollectiveTime.
	PairKind
	// RingKind is a Sendrecv exchange sending to (id+1)%n and receiving
	// from (id-1+n)%n — the shifted-neighbor halo of MG's level sweeps
	// and BT/SP's directional face exchanges. Works on any world of two
	// or more ranks (no parity constraint, unlike PairKind). Valid in
	// SeqStep scripts, not in CollectiveTime.
	RingKind
	// ComputeStep is a SeqStep that performs no communication.
	ComputeStep
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
	default:
		return fmt.Sprintf("CollectiveKind(%d)", int(k))
	}
}

// CollectiveTime measures the average virtual time of one collective
// operation at the given message size (per-rank payload, as in IMB),
// averaged over iters repetitions.
func CollectiveTime(cfg Config, kind CollectiveKind, msgBytes, iters int, opts ...Option) (vclock.Time, error) {
	// Collective results are recycled unread (only virtual time is
	// measured), so size-only transport applies here too.
	cfg.SizeOnlyPayloads = true
	w, err := NewWorld(cfg, opts...)
	if err != nil {
		return 0, err
	}
	// Symmetric repetitions are priced in closed form; tracing-on runs
	// keep the full path so per-operation traces are unchanged.
	if w.cfg.Tracer == nil {
		if total, ok := w.RepeatOp(kind, msgBytes, iters); ok {
			return total / vclock.Time(iters), nil
		}
	}
	err = w.Run(func(r *Rank) {
		switch kind {
		case BcastKind:
			payload := make([]byte, msgBytes)
			for i := 0; i < iters; i++ {
				out := r.Bcast(0, payload)
				// On the root the result aliases payload (which the next
				// iteration reuses); only non-root copies are dead here.
				if r.ID() != 0 {
					Recycle(out)
				}
			}
		case AllreduceKind:
			elems := msgBytes / 8
			if elems < 1 {
				elems = 1
			}
			vec := make([]float64, elems)
			for i := 0; i < iters; i++ {
				RecycleF64(r.Allreduce(vec, OpSum))
			}
		case AllgatherKind:
			payload := make([]byte, msgBytes)
			for i := 0; i < iters; i++ {
				Recycle(r.Allgather(payload))
			}
		case AlltoallKind:
			buf := make([]byte, r.Size()*msgBytes)
			for i := 0; i < iters; i++ {
				Recycle(r.Alltoall(buf, msgBytes))
			}
		default:
			panic(fmt.Sprintf("simmpi: unknown collective %d", int(kind)))
		}
	})
	if err != nil {
		return 0, err
	}
	return w.MaxTime() / vclock.Time(iters), nil
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
