package core

import (
	"maia/internal/machine"
	"maia/internal/memsim"
	"maia/internal/vclock"
)

// Model holds the tunable knobs of the execution model. The defaults
// reproduce the paper; the ablation benchmarks flip individual knobs.
type Model struct {
	// Stream configures the sustained-bandwidth model (including the
	// GDDR5 open-bank limit of Figure 4).
	Stream memsim.StreamConfig
	// ThreadLatencyHiding enables the in-order issue model: without it a
	// single Phi thread per core is (wrongly) assumed to reach full
	// issue rate. Ablation for the threads-per-core sweeps.
	ThreadLatencyHiding bool
	// CacheCapture enables the cache-reuse model: the host's 2.8 MB of
	// cache per core absorbs a workload's reusable traffic, the Phi's
	// 544 KB mostly cannot (the 5.1x gap of Section 6.2). Ablating it
	// makes every benchmark look like STREAM.
	CacheCapture bool
	// OSCorePenalty multiplies time when the placement uses the
	// OS-reserved core (Figure 24's 60/120/180/240-thread placements).
	OSCorePenalty float64
}

// DefaultModel returns the calibration that reproduces the paper.
func DefaultModel() Model {
	return Model{
		Stream:              memsim.DefaultStreamConfig(),
		ThreadLatencyHiding: true,
		CacheCapture:        true,
		OSCorePenalty:       1.25,
	}
}

// issueEfficiency models how well one core's pipelines are fed at the
// given hardware-thread count.
//
// Phi (in-order): a single thread cannot issue back-to-back instructions
// and stalls on every memory access, so issue efficiency starts near 0.5
// and climbs with threads. Unit-stride code peaks at 3 threads per core
// (the 4th mostly adds cache pressure — the paper finds 3 best for most
// NPBs); latency-bound gather/scatter code keeps gaining through 4 (the
// paper finds 4 best for Cart3D and BT-MPI).
//
// Host (out-of-order): one thread per core nearly saturates the core;
// HyperThreading slightly hurts compute-intensive codes (Figure 25: 32
// threads run 6% below 16 threads).
func (m Model) issueEfficiency(part machine.Partition, stride StrideClass) float64 {
	tpc := part.ThreadsPerCore
	if !part.Proc.InOrder {
		if tpc >= 2 {
			return 0.84 // both hardware threads together
		}
		return 0.90
	}
	if !m.ThreadLatencyHiding {
		return 0.95
	}
	var curve [5]float64
	if stride == GatherScatter || stride == Strided {
		// Latency-bound access: every extra context hides more stalls.
		curve = [5]float64{0, 0.35, 0.60, 0.80, 0.95}
	} else {
		// Unit stride: issue slots fill by 3 threads; the 4th thread's
		// gain is offset by L1/L2 sharing.
		curve = [5]float64{0, 0.50, 0.80, 0.95, 0.93}
	}
	if tpc > 4 {
		tpc = 4
	}
	return curve[tpc]
}

// vectorEfficiency returns the fraction of a core's peak flop rate the
// workload reaches given its vectorizable fraction and stride. Scalar
// code is limited to one lane of the SIMD unit.
func (m Model) vectorEfficiency(part machine.Partition, w Workload) float64 {
	lanes := float64(part.Proc.SIMDWidthBits) / 64 // DP lanes
	var strideEff float64
	switch w.Stride {
	case Unit:
		strideEff = 1.0
	case Strided:
		if part.Proc.InOrder {
			strideEff = 0.35
		} else {
			strideEff = 0.60
		}
	case GatherScatter:
		if part.Proc.InOrder {
			// Section 6.8.1: hardware gather/scatter on the Phi bought
			// CG only ~10% over scalar: 1.1 lanes of 8.
			strideEff = 1.1 / lanes
		} else {
			strideEff = 0.50
		}
	}
	return w.VecFraction*strideEff + (1-w.VecFraction)/lanes
}

// appComputeEfficiency is the fixed gap between the issue/vector model
// and real compiled code: dependency chains, spills, and address
// arithmetic. The in-order Phi pays far more of it.
func appComputeEfficiency(proc machine.ProcessorSpec) float64 {
	if proc.InOrder {
		return 0.5
	}
	return 1.0
}

// computeRate returns the partition's aggregate flop rate (flops/s) for
// the workload.
func (m Model) computeRate(part machine.Partition, w Workload) float64 {
	perCore := part.Proc.PeakGflopsPerCore() * 1e9
	eff := m.issueEfficiency(part, w.Stride) *
		m.vectorEfficiency(part, w) *
		appComputeEfficiency(part.Proc)
	return perCore * eff * float64(part.Cores)
}

// appMemEfficiency maps the STREAM-sustained bandwidth to what a real
// application phase achieves at the partition's threads-per-core. On the
// Phi, one thread per core cannot keep enough loads in flight to fill
// the GDDR5 pipes (which is why MG gains through 3 threads per core even
// though STREAM already peaks at 59 threads); the 4th thread loses a
// little to cache thrashing. On the host, one thread per core is already
// near-optimal and HyperThreading costs a little.
func appMemEfficiency(part machine.Partition, stride StrideClass) float64 {
	tpc := part.ThreadsPerCore
	if !part.Proc.InOrder {
		if tpc >= 2 {
			return 0.80
		}
		return 0.85
	}
	// Unit-stride phases saturate by 3 threads per core and lose a
	// little to L1/L2 thrashing at 4; latency-bound irregular access
	// keeps needing more outstanding loads, so it gains through 4.
	curve := [5]float64{0, 0.32, 0.44, 0.62, 0.58}
	if stride != Unit {
		curve = [5]float64{0, 0.22, 0.38, 0.52, 0.62}
	}
	if tpc > 4 {
		tpc = 4
	}
	return curve[tpc]
}

// memStrideDerate is the bandwidth wasted when accesses are not unit
// stride (partial cache-line use, no prefetch).
func memStrideDerate(proc machine.ProcessorSpec, stride StrideClass) float64 {
	switch stride {
	case Strided:
		if proc.InOrder {
			return 0.45
		}
		return 0.60
	case GatherScatter:
		if proc.InOrder {
			return 0.35
		}
		return 0.55
	default:
		return 1.0
	}
}

// memoryRate returns the partition's sustained application memory
// bandwidth (bytes/s) for the workload.
func (m Model) memoryRate(part machine.Partition, w Workload) float64 {
	bw := memsim.TriadBandwidth(part, m.Stream) * 1e9
	return bw * appMemEfficiency(part, w.Stride) * memStrideDerate(part.Proc, w.Stride)
}

// cacheCapture is the fraction of a workload's reusable traffic the
// partition's caches absorb. The host's 2.788 MB per core captures
// essentially all of it; the Phi's 544 KB per core captures a quarter
// (the paper's Section 6.2 cache-capacity comparison).
func (m Model) cacheCapture(part machine.Partition) float64 {
	if !m.CacheCapture {
		return 0
	}
	if part.Proc.InOrder {
		return 0.25
	}
	return 1.0
}

// effectiveBytes is the main-memory traffic after cache reuse.
func (m Model) effectiveBytes(part machine.Partition, w Workload) float64 {
	return w.Bytes * (1 - w.Reuse*m.cacheCapture(part))
}

// Time predicts the execution time of w on part: the parallelizable part
// runs at the roofline of compute and memory rates; the serial remainder
// runs on a single core at one thread.
func (m Model) Time(w Workload, part machine.Partition) vclock.Time {
	if err := w.Validate(); err != nil {
		panic(err)
	}
	t := m.phaseTime(w.Scale(w.ParallelFraction), part)

	if serial := 1 - w.ParallelFraction; serial > 0 {
		single := part
		single.Cores = 1
		single.ThreadsPerCore = 1
		single.UsesOSCore = false
		t += m.phaseTime(w.Scale(serial), single)
	}

	if part.UsesOSCore && m.OSCorePenalty > 1 {
		t *= vclock.Time(m.OSCorePenalty)
	}
	return t
}

// phaseTime prices one fully parallel phase on a partition: the roofline
// of compute and memory time, with a modest non-overlap tax.
func (m Model) phaseTime(w Workload, part machine.Partition) vclock.Time {
	var tc, tm float64
	if w.Flops > 0 {
		if rate := m.computeRate(part, w); rate > 0 {
			tc = w.Flops / rate
		}
	}
	if b := m.effectiveBytes(part, w); b > 0 {
		if rate := m.memoryRate(part, w); rate > 0 {
			tm = b / rate
		}
	}
	hi, lo := tc, tm
	if tm > tc {
		hi, lo = tm, tc
	}
	return vclock.Time(hi + 0.25*lo)
}
