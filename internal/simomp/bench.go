package simomp

import "maia/internal/vclock"

// This file is the EPCC-style micro-benchmark layer that generates the
// data for Figures 15 and 16. Overhead follows the paper's definition
// (Section 3.4): with Ts the sequential time of a reference loop and Tp
// the time of the same loop executed in parallel inside the construct
// under test, overhead = Tp − Ts/p.

// refIterations and refIterCost define the EPCC reference loop: enough
// work that the parallel span is meaningful, little enough that construct
// overheads dominate neither to zero nor to noise.
const refIterations = 1024

var refIterCost = 100 * vclock.Nanosecond

// MeasureSyncOverhead measures the Figure 15 overhead of a construct by
// running the reference loop through the Team execution path where the
// construct has one (loop-family constructs and REDUCTION), and from the
// runtime's calibration directly for the pure mutual-exclusion and
// barrier constructs (whose EPCC reference loops are degenerate).
func MeasureSyncOverhead(rt *Runtime, c Construct) vclock.Time {
	team := NewTeam(rt)
	p := vclock.Time(team.Threads())
	ts := vclock.Time(refIterations) * refIterCost
	opts := ForOpts{Sched: Static, IterCost: refIterCost}
	switch c {
	case For:
		tp := team.For(refIterations, opts, nil)
		return tp - ts/p
	case ParallelFor:
		tp := team.ParallelFor(refIterations, opts, nil)
		return tp - ts/p
	case Parallel:
		perThread := ts / p
		tp := team.Parallel(nil, func(int) vclock.Time { return perThread })
		return tp - ts/p
	case Reduction:
		_, tp := team.ForReduceSum(refIterations, opts, nil)
		return tp - ts/p
	default:
		return rt.SyncOverhead(c)
	}
}

// MeasureSchedOverhead measures the Figure 16 overhead of one scheduling
// policy at one chunk size, EPCC style.
func MeasureSchedOverhead(rt *Runtime, s Schedule, chunkSize int) vclock.Time {
	team := NewTeam(rt)
	p := vclock.Time(team.Threads())
	ts := vclock.Time(refIterations) * refIterCost
	tp := team.For(refIterations, ForOpts{Sched: s, Chunk: chunkSize, IterCost: refIterCost}, nil)
	return tp - ts/p
}
