package memsim

import (
	"maia/internal/machine"
)

// BandwidthPoint is one point of the Figure 6 curves: sustained per-core
// read and write bandwidth when streaming through a working set of the
// given size.
type BandwidthPoint struct {
	WorkingSetBytes int
	ReadGBs         float64
	WriteGBs        float64
}

// perLevelBandwidth returns the per-core sustained (read, write) GB/s for
// hierarchy level index lv (len(caches) = main memory) of proc.
func perLevelBandwidth(proc machine.ProcessorSpec, lv int) (read, write float64) {
	if lv < len(proc.Caches) {
		c := proc.Caches[lv]
		return c.ReadPerCoreGBs, c.WritePerCoreGBs
	}
	return proc.MemReadPerCoreGBs, proc.MemWritePerCoreGBs
}

// StreamBandwidth measures per-core read and write bandwidth for one
// working-set size by streaming sequentially through the simulated
// hierarchy and charging each 64-byte line the transfer time of the level
// that served it. Sequential streams are what STREAM-style bandwidth tools
// use; prefetchers hide latency but not the bandwidth ceiling of the
// serving level, so transfer time (not load latency) is the right cost.
func StreamBandwidth(h *Hierarchy, proc machine.ProcessorSpec, workingSetBytes int) BandwidthPoint {
	const lineBytes = 64
	lines := workingSetBytes / lineBytes
	if lines < 1 {
		lines = 1
	}
	h.Flush()
	passes := 1
	if lines < 4096 {
		passes = 4096/lines + 1
	}
	counts := make([]uint64, len(h.levels)+1)
	// One warm-up pass, then the measured passes tallying which level
	// serves each line.
	streamPasses(h, counts, lines, lineBytes, passes)
	// Harmonic combination: total time = sum over levels of
	// bytes_served_by_level / level_bandwidth.
	var readTime, writeTime, bytes float64
	for lv, n := range counts {
		if n == 0 {
			continue
		}
		b := float64(n * lineBytes)
		r, w := perLevelBandwidth(proc, lv)
		readTime += b / r
		writeTime += b / w
		bytes += b
	}
	return BandwidthPoint{
		WorkingSetBytes: workingSetBytes,
		ReadGBs:         bytes / readTime,
		WriteGBs:        bytes / writeTime,
	}
}

// BandwidthCurve sweeps working-set sizes (doubling) and returns the
// Figure 6 curves for the given processor. Points are independent —
// StreamBandwidth flushes before measuring — so they run concurrently
// on a bounded worker pool, each against its own hierarchy, with
// results written by index (deterministic for any worker count).
func BandwidthCurve(proc machine.ProcessorSpec, minBytes, maxBytes int) []BandwidthPoint {
	sizes := doublingSizes(minBytes, maxBytes)
	out := make([]BandwidthPoint, len(sizes))
	sweepHier(proc, len(sizes), func(h *Hierarchy, i int) {
		out[i] = StreamBandwidth(h, proc, sizes[i])
	})
	return out
}
