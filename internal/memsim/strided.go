package memsim

import (
	"sync"

	"maia/internal/machine"
)

// Strided and random access experiments: the measured basis for the
// execution model's stride derates. Non-unit strides waste most of every
// cache line (a 64-byte line delivers 8 useful bytes to a stride-64
// walk), and random (gather) access additionally loses prefetch, leaving
// each access paying the full load latency of its serving level.

// StridedBandwidth streams through workingSetBytes touching one element
// (elemBytes) every strideBytes, through the simulated hierarchy, and
// returns the effective USEFUL-byte bandwidth in GB/s: useful traffic
// divided by the time to move whole lines at each serving level's rate.
func StridedBandwidth(h *Hierarchy, proc machine.ProcessorSpec, workingSetBytes, strideBytes, elemBytes int) float64 {
	if strideBytes < elemBytes {
		strideBytes = elemBytes
	}
	h.Flush()
	accesses := workingSetBytes / strideBytes
	if accesses < 1 {
		accesses = 1
	}
	passes := 1
	if accesses < 4096 {
		passes = 4096/accesses + 1
	}
	counts := make([]uint64, len(h.levels)+1)
	streamPasses(h, counts, accesses, uint64(strideBytes), passes)
	// Bottleneck accounting: the core consumes elemBytes per access from
	// L1; every level below moves a whole line per access it serves.
	// Streaming overlaps the levels, so the slowest level's traffic sets
	// the time and useful bandwidth = useful bytes / that time.
	const lineBytes = 64
	totalAccesses := float64(passes * accesses)
	useful := totalAccesses * float64(elemBytes)
	l1bw, _ := perLevelBandwidth(proc, 0)
	maxTime := useful / (l1bw * 1e9)
	for lv := 1; lv < len(counts); lv++ {
		if counts[lv] == 0 {
			continue
		}
		r, _ := perLevelBandwidth(proc, lv)
		if t := float64(counts[lv]) * lineBytes / (r * 1e9); t > maxTime {
			maxTime = t
		}
	}
	return useful / maxTime / 1e9
}

// GatherLatencyBound returns the effective bandwidth of a fully random
// gather over a working set: every access pays its serving level's load
// latency (no prefetch), delivering elemBytes each.
func GatherLatencyBound(h *Hierarchy, workingSetBytes, elemBytes int, seed uint64) float64 {
	pt := ChaseLatency(h, workingSetBytes, seed)
	return float64(elemBytes) / (pt.LatencyNs * 1e-9) / 1e9
}

// derateMemo caches StrideDerate results. The measurement is a pure
// function of the (catalog) processor spec and the stride, so repeated
// jobs in one process — the maiad cold path re-pricing ext-stride —
// reuse the first answer bit-for-bit. Keyed by spec name: catalog specs
// are identified by name.
var (
	derateMu   sync.Mutex
	derateMemo = map[derateKey]float64{}
)

type derateKey struct {
	proc   string
	stride int
}

// StrideDerate reports the measured unit-vs-strided bandwidth ratio for
// a DRAM-resident working set — the simulation-backed counterpart of the
// execution model's calibrated derates. Results are memoized per
// (processor, stride); MAIA_NO_FASTPATH disables the memo along with
// every other fast path so the slow-path CI job re-measures.
func StrideDerate(proc machine.ProcessorSpec, strideBytes int) float64 {
	key := derateKey{proc: proc.Name, stride: strideBytes}
	if !noFastPathEnv {
		derateMu.Lock()
		d, ok := derateMemo[key]
		derateMu.Unlock()
		if ok {
			return d
		}
	}
	ws := 32 << 20
	// The unit and strided measurements are independent (each flushes the
	// hierarchy it is given), so run them as a two-point sweep.
	var bw [2]float64
	strides := [2]int{8, strideBytes}
	sweepHier(proc, 2, func(h *Hierarchy, i int) {
		bw[i] = StridedBandwidth(h, proc, ws, strides[i], 8)
	})
	d := bw[1] / bw[0]
	if !noFastPathEnv {
		derateMu.Lock()
		derateMemo[key] = d
		derateMu.Unlock()
	}
	return d
}
