// Package machine is the hardware model of NASA's "Maia" system: a 128-node
// SGI Rackable cluster whose nodes pair two Intel Xeon E5-2670 ("Sandy
// Bridge") processors with two Intel Xeon Phi 5110P coprocessors.
//
// Every quantity the paper's evaluation hinges on — clock rates, SIMD
// widths, cache geometry and latencies, memory channels and bandwidths,
// interconnect rates, hardware threading — is an explicit, documented
// parameter here (the paper's Table 1 and Figures 2–3). The rest of the
// repository consumes these parameters; nothing else hard-codes hardware
// numbers.
package machine

import "fmt"

// Multithreading describes how a processor presents hardware threads.
type Multithreading int

const (
	// HyperThreading is Sandy Bridge SMT: optional (can be disabled) and
	// aimed at improving utilization of an out-of-order core. The paper
	// finds compute-intensive codes gain nothing (or lose) from it.
	HyperThreading Multithreading = iota
	// HardwareThreads is the MIC scheme: four contexts per in-order core,
	// always on, required to hide in-order pipeline stalls. A core cannot
	// issue back-to-back instructions from the same thread, so a single
	// thread per core reaches at most half of peak issue rate.
	HardwareThreads
)

// String implements fmt.Stringer.
func (m Multithreading) String() string {
	switch m {
	case HyperThreading:
		return "HyperThread"
	case HardwareThreads:
		return "Hardware Threads"
	default:
		return fmt.Sprintf("Multithreading(%d)", int(m))
	}
}

// CacheLevel describes one level of a processor's cache hierarchy.
type CacheLevel struct {
	Name            string  // "L1", "L2", "L3"
	SizeBytes       int     // capacity visible to one core (shared levels: total)
	LineBytes       int     // cache line size
	Assoc           int     // set associativity
	LatencyNs       float64 // load-to-use latency for a hit in this level
	Shared          bool    // true if shared by all cores of the processor
	WritePerCoreGBs float64 // sustained per-core write bandwidth hitting this level
	ReadPerCoreGBs  float64 // sustained per-core read bandwidth hitting this level
}

// ProcessorSpec is the architectural model of one processor (a Sandy Bridge
// socket or a Xeon Phi card).
type ProcessorSpec struct {
	Name         string // marketing name, e.g. "Intel Xeon E5-2670"
	Architecture string // "Sandy Bridge" or "Many Integrated Core"

	Cores          int     // physical cores
	BaseGHz        float64 // base clock
	TurboGHz       float64 // max turbo clock (0 if not supported)
	FlopsPerClock  int     // double-precision flops per clock per core at peak
	SIMDWidthBits  int     // vector register width
	ThreadsPerCore int     // hardware thread contexts per core
	InOrder        bool    // true for the Phi's in-order P54C-derived pipeline
	MT             Multithreading

	Caches []CacheLevel // ordered L1 data, L2[, L3]

	// Memory system.
	MemTechnology      string  // "DDR3-1600" or "GDDR5-3400"
	MemChannels        int     // independent memory channels
	MemControllers     int     // memory controllers
	MemBanks           int     // independently open DRAM banks (bank-group limit)
	MemLatencyNs       float64 // load latency to main memory
	MemPeakGBs         float64 // peak memory bandwidth of the whole processor
	MemSustainedGBs    float64 // best sustained STREAM-triad bandwidth
	MemReadPerCoreGBs  float64 // sustained per-core read bandwidth from DRAM
	MemWritePerCoreGBs float64 // sustained per-core write bandwidth to DRAM
	MemGB              int     // memory capacity attached to this processor

	// OSReservedCores counts cores the OS effectively owns; scheduling user
	// work onto them incurs heavy interference (the Phi's 60th core runs
	// the MPSS micro-OS services).
	OSReservedCores int
}

// Clone returns a deep copy of the spec: the Caches slice is copied, so
// mutating the clone's cache levels cannot affect the original.
func (p ProcessorSpec) Clone() ProcessorSpec {
	c := p
	c.Caches = append([]CacheLevel(nil), p.Caches...)
	return c
}

// PeakGflopsPerCore returns the peak double-precision rate of one core.
func (p ProcessorSpec) PeakGflopsPerCore() float64 {
	return p.BaseGHz * float64(p.FlopsPerClock)
}

// PeakGflops returns the peak double-precision rate of the processor.
func (p ProcessorSpec) PeakGflops() float64 {
	return p.PeakGflopsPerCore() * float64(p.Cores)
}

// MaxThreads returns the total hardware thread count.
func (p ProcessorSpec) MaxThreads() int { return p.Cores * p.ThreadsPerCore }

// UsableCores returns the cores an application should use (total minus the
// OS-reserved ones). On the Phi this is 59: the paper shows 59/118/177/236
// threads far outperform 60/120/180/240.
func (p ProcessorSpec) UsableCores() int { return p.Cores - p.OSReservedCores }

// SandyBridge returns the model of one Intel Xeon E5-2670 socket as
// deployed in Maia (Table 1; Figure 2; Section 6.2 measurements).
func SandyBridge() ProcessorSpec {
	return ProcessorSpec{
		Name:           "Intel Xeon E5-2670",
		Architecture:   "Sandy Bridge",
		Cores:          8,
		BaseGHz:        2.60,
		TurboGHz:       3.20,
		FlopsPerClock:  8, // 256-bit AVX: 4 DP add + 4 DP mul per clock
		SIMDWidthBits:  256,
		ThreadsPerCore: 2,
		InOrder:        false,
		MT:             HyperThreading,
		Caches: []CacheLevel{
			{Name: "L1", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8,
				LatencyNs: 1.5, ReadPerCoreGBs: 12.6, WritePerCoreGBs: 10.4},
			{Name: "L2", SizeBytes: 256 << 10, LineBytes: 64, Assoc: 8,
				LatencyNs: 4.6, ReadPerCoreGBs: 12.3, WritePerCoreGBs: 9.5},
			{Name: "L3", SizeBytes: 20 << 20, LineBytes: 64, Assoc: 20,
				LatencyNs: 15, Shared: true, ReadPerCoreGBs: 11.6, WritePerCoreGBs: 8.6},
		},
		MemTechnology:      "DDR3-1600",
		MemChannels:        4,
		MemControllers:     1,
		MemBanks:           32, // 4 channels x 8 banks; never the bottleneck here
		MemLatencyNs:       81,
		MemPeakGBs:         51.2,
		MemSustainedGBs:    38.0, // per socket; two sockets sustain ~76 GB/s triad
		MemReadPerCoreGBs:  7.5,
		MemWritePerCoreGBs: 7.2,
		MemGB:              16, // per socket; 32 GB per node across two sockets
	}
}

// XeonPhi5110P returns the model of one Intel Xeon Phi 5110P coprocessor
// (Table 1; Figure 3; Section 6.2 measurements).
func XeonPhi5110P() ProcessorSpec {
	return ProcessorSpec{
		Name:           "Intel Xeon Phi 5110P",
		Architecture:   "Many Integrated Core",
		Cores:          60,
		BaseGHz:        1.05,
		TurboGHz:       0,
		FlopsPerClock:  16, // 512-bit vector FMA: 8 DP mul-add per clock
		SIMDWidthBits:  512,
		ThreadsPerCore: 4,
		InOrder:        true,
		MT:             HardwareThreads,
		Caches: []CacheLevel{
			{Name: "L1", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8,
				LatencyNs: 2.9, ReadPerCoreGBs: 1.680, WritePerCoreGBs: 1.538},
			{Name: "L2", SizeBytes: 512 << 10, LineBytes: 64, Assoc: 8,
				LatencyNs: 22.9, ReadPerCoreGBs: 0.971, WritePerCoreGBs: 0.962},
		},
		MemTechnology:      "GDDR5-3400",
		MemChannels:        16, // 8 controllers x two 32-bit channels
		MemControllers:     8,
		MemBanks:           128, // 16 banks/device x 8 devices: the Fig 4 limit
		MemLatencyNs:       295,
		MemPeakGBs:         320,
		MemSustainedGBs:    180, // STREAM triad at 59 or 118 threads (Fig 4)
		MemReadPerCoreGBs:  0.504,
		MemWritePerCoreGBs: 0.263,
		MemGB:              8,
		OSReservedCores:    1,
	}
}
