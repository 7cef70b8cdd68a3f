package npb

import (
	"math"

	"maia/internal/simmpi"
	"maia/internal/vclock"
)

// Closed-form pricing of the Figure 20 iteration scripts. Every NPB
// per-iteration pattern is a fixed sequence of symmetric steps —
// compute, id^1 pair exchanges, ring shifts, recursive-doubling
// allreduces, pairwise alltoalls — so on the flat homogeneous worlds
// MPIRun builds, the whole rank sweep prices through simmpi's replay
// instead of goroutine-running one representative iteration. LU's
// wavefront is the one non-lockstep shape; it replays as a pipeline
// (simmpi.RepeatPipeline). The replay refuses (and MPIRun falls back to
// the goroutine engine) under fault plans, MAIA_NO_FASTPATH,
// single-rank worlds, or any step it cannot replay — differential
// tests pin the two paths bit-identical.

// iterationReplay prices one representative iteration of b in closed
// form, or reports ok=false when the goroutine engine is needed.
func iterationReplay(w *simmpi.World, b Benchmark, s Size, compute vclock.Time) (vclock.Time, bool) {
	if b == LU {
		// Wavefront pipeline: two sweeps of Grid[0] hyperplanes, each
		// flowing one boundary plane to the next rank.
		planes := 2 * s.Grid[0]
		msg := int(8 * ncomp * float64(s.Grid[0]))
		return w.RepeatPipeline(msg, planes, compute/vclock.Time(planes))
	}
	steps, ok := iterationSeq(b, s, w.Size(), compute)
	if !ok {
		return 0, false
	}
	return w.RepeatSeq(steps, 1)
}

// iterationSeq expresses one iteration of b as a SeqStep script. It
// must mirror iterationScript operation for operation — same payload
// sizes, same compute charges, same order — so the replayed clock
// recurrences are the goroutine engine's, bit for bit. Benchmarks whose
// per-rank control flow cannot be a lockstep script (LU's wavefront)
// return ok=false.
func iterationSeq(b Benchmark, s Size, n int, compute vclock.Time) ([]simmpi.SeqStep, bool) {
	pts := float64(s.Points())
	switch b {
	case EP:
		return []simmpi.SeqStep{{Compute: compute, Kind: simmpi.AllreduceKind, Bytes: 96}}, true
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
		return steps, true
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
		return steps, true
	case FT:
		block := int(16 * pts / float64(n) / float64(n))
		if block < 16 {
			block = 16
		}
		return []simmpi.SeqStep{{Compute: compute, Kind: simmpi.AlltoallKind, Bytes: block}}, true
	case IS:
		block := int(4 * float64(s.N) / float64(n) / float64(n))
		if block < 4 {
			block = 4
		}
		return []simmpi.SeqStep{
			{Compute: compute, Kind: simmpi.AlltoallKind, Bytes: block},
			{Kind: simmpi.AllreduceKind, Bytes: 32},
		}, true
	case BT, SP:
		// Square process grid: per directional sweep, a column-ring and
		// a row-ring face exchange. Both rings are symmetric shifts, so
		// each prices as one ring exchange.
		faceBytes := int(8 * ncomp * math.Pow(pts/float64(n), 2.0/3.0))
		steps := make([]simmpi.SeqStep, 0, 6)
		for dim := 0; dim < 3; dim++ {
			if n == 1 {
				steps = append(steps, simmpi.SeqStep{Compute: compute / 3, Kind: simmpi.ComputeStep})
				continue
			}
			steps = append(steps,
				simmpi.SeqStep{Compute: compute / 3, Kind: simmpi.RingKind, Bytes: faceBytes},
				simmpi.SeqStep{Kind: simmpi.RingKind, Bytes: faceBytes})
		}
		return steps, true
	default:
		return nil, false
	}
}
