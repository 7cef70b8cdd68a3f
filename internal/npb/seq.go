package npb

import (
	"fmt"
	"math"

	"maia/internal/simmpi"
	"maia/internal/vclock"
)

// The Figure 20 iteration scripts. Every NPB per-iteration pattern is a
// fixed sequence of simmpi steps — compute, id^1 pair exchanges, ring
// shifts, allreduces, alltoalls, and LU's wavefront rounds — and the
// script is its only description: MPIRun prices it through
// simmpi.SeqTime, which replays it in closed form on the flat
// homogeneous worlds MPIRun builds and runs it on the goroutine engine
// (simmpi.RunSeq) where the replay refuses: MAIA_NO_FASTPATH,
// single-rank worlds, or a step it cannot replay.

// iterationSeq expresses one iteration of b on n ranks as a script,
// with the rank's compute share charged along the way. Payload sizes
// follow the benchmark's decomposition.
func iterationSeq(b Benchmark, s Size, n int, compute vclock.Time) []simmpi.SeqStep {
	pts := float64(s.Points())
	switch b {
	case EP:
		return []simmpi.SeqStep{{Compute: compute, Kind: simmpi.AllreduceKind, Bytes: 96}}
	case CG:
		rowBytes := int(8 * float64(s.N) / math.Sqrt(float64(n)))
		steps := make([]simmpi.SeqStep, 0, 25*4)
		for step := 0; step < 25; step++ {
			if n > 1 {
				steps = append(steps, simmpi.SeqStep{Compute: compute / 25, Kind: simmpi.PairKind, Bytes: rowBytes})
			} else {
				steps = append(steps, simmpi.SeqStep{Compute: compute / 25, Kind: simmpi.ComputeStep})
			}
			steps = append(steps,
				simmpi.SeqStep{Kind: simmpi.AllreduceKind, Bytes: 8},
				simmpi.SeqStep{Kind: simmpi.AllreduceKind, Bytes: 8},
				simmpi.SeqStep{Kind: simmpi.AllreduceKind, Bytes: 8})
		}
		return steps
	case MG:
		levels := log2(s.Grid[0]) - 1
		sub := pts / float64(n)
		face := math.Pow(sub, 2.0/3.0)
		steps := make([]simmpi.SeqStep, 0, 3*levels+1)
		for l := 0; l < levels; l++ {
			c := compute / vclock.Time(levels)
			faceBytes := int(8 * face / float64(int(1)<<(2*l)))
			if faceBytes < 8 {
				faceBytes = 8
			}
			if n > 1 {
				steps = append(steps,
					simmpi.SeqStep{Compute: c, Kind: simmpi.RingKind, Bytes: faceBytes},
					simmpi.SeqStep{Kind: simmpi.RingKind, Bytes: faceBytes},
					simmpi.SeqStep{Kind: simmpi.RingKind, Bytes: faceBytes})
			} else {
				steps = append(steps, simmpi.SeqStep{Compute: c, Kind: simmpi.ComputeStep})
			}
		}
		steps = append(steps, simmpi.SeqStep{Kind: simmpi.AllreduceKind, Bytes: 8})
		return steps
	case FT:
		block := int(16 * pts / float64(n) / float64(n))
		if block < 16 {
			block = 16
		}
		return []simmpi.SeqStep{{Compute: compute, Kind: simmpi.AlltoallKind, Bytes: block}}
	case IS:
		block := int(4 * float64(s.N) / float64(n) / float64(n))
		if block < 4 {
			block = 4
		}
		return []simmpi.SeqStep{
			{Compute: compute, Kind: simmpi.AlltoallKind, Bytes: block},
			{Kind: simmpi.AllreduceKind, Bytes: 32},
		}
	case LU:
		// Wavefront pipeline: two sweeps of Grid[0] hyperplanes, each
		// flowing one boundary plane to the next rank.
		planes := 2 * s.Grid[0]
		step := simmpi.SeqStep{
			Compute: compute / vclock.Time(planes),
			Kind:    simmpi.PipelineKind,
			Bytes:   int(8 * ncomp * float64(s.Grid[0])),
		}
		steps := make([]simmpi.SeqStep, planes)
		for p := range steps {
			steps[p] = step
		}
		return steps
	case BT, SP:
		// Square process grid: per directional sweep, a face exchange
		// with the row neighbours, then one with the column neighbours.
		// The column partner (row+1, col) is rank id+side, a true ring
		// shift. The row partner (row, col+1) wraps within its row, and
		// the shift-1 ring stands in for it exactly: MPIRun takes no
		// fault plan and builds only homogeneous worlds, where every
		// pair costs the same, so every symmetric permutation — each
		// rank sending and receiving one equal-sized message — prices
		// the same.
		side := int(math.Round(math.Sqrt(float64(n))))
		faceBytes := int(8 * ncomp * math.Pow(pts/float64(n), 2.0/3.0))
		steps := make([]simmpi.SeqStep, 0, 6)
		for dim := 0; dim < 3; dim++ {
			if n == 1 {
				steps = append(steps, simmpi.SeqStep{Compute: compute / 3, Kind: simmpi.ComputeStep})
				continue
			}
			steps = append(steps,
				simmpi.SeqStep{Compute: compute / 3, Kind: simmpi.RingKind, Bytes: faceBytes},
				simmpi.SeqStep{Kind: simmpi.RingKind, Bytes: faceBytes, Shift: side})
		}
		return steps
	default:
		panic(fmt.Sprintf("npb: no iteration script for %v", b))
	}
}
