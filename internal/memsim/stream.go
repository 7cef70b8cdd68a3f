package memsim

import (
	"fmt"

	"maia/internal/machine"
)

// StreamConfig controls the STREAM triad model (Figure 4).
type StreamConfig struct {
	// BankLimit enables the GDDR5 open-bank model: when the number of
	// independent access streams (one per thread for triad, as the paper
	// argues) exceeds the device's simultaneously-open banks, row-buffer
	// thrashing cuts sustained bandwidth. Disabling it is the ablation
	// for the Figure 4 drop.
	BankLimit bool
	// BankPenalty is the bandwidth multiplier applied past the limit.
	// The paper measures 140 GB/s after 180 GB/s: 0.78.
	BankPenalty float64
}

// DefaultStreamConfig returns the configuration that reproduces Figure 4.
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{BankLimit: true, BankPenalty: 140.0 / 180.0}
}

// StreamPoint is one point of the Figure 4 curve.
type StreamPoint struct {
	Threads  int
	TriadGBs float64
}

// TriadBandwidth returns the aggregate STREAM triad bandwidth of a
// partition. Bandwidth ramps linearly with threads until the processor's
// sustained limit, then (on GDDR5) falls off when threads exceed the open
// bank count.
func TriadBandwidth(part machine.Partition, cfg StreamConfig) float64 {
	proc := part.Proc
	// Per-thread ramp: a single stream cannot saturate the memory system;
	// the sustained aggregate is reached when every usable core
	// contributes one stream.
	saturating := proc.UsableCores()
	if saturating < 1 {
		saturating = 1
	}
	perThread := proc.MemSustainedGBs / float64(saturating)
	if part.Device == machine.Host {
		// Two-socket host: machine.SandyBridge is per socket; a host
		// partition spans both sockets (16 cores, 2x the bandwidth).
		sockets := float64(part.Cores) / float64(proc.Cores)
		if sockets < 1 {
			sockets = 1
		}
		perThread = proc.MemSustainedGBs / float64(proc.Cores)
		limit := proc.MemSustainedGBs * sockets
		bw := float64(part.Threads()) * perThread
		if bw > limit {
			bw = limit
		}
		return bw
	}
	threads := part.Threads()
	bw := float64(threads) * perThread
	if bw > proc.MemSustainedGBs {
		bw = proc.MemSustainedGBs
	}
	if cfg.BankLimit && threads > proc.MemBanks {
		bw *= cfg.BankPenalty
	}
	return bw
}

// StreamCurve returns the Figure 4 curve for a device: aggregate triad
// bandwidth at each thread count in threads. Points are independent
// model evaluations, so the sweep runs on the shared bounded worker
// pool with results written by index.
func StreamCurve(n *machine.Node, dev machine.Device, threads []int, cfg StreamConfig) []StreamPoint {
	out := make([]StreamPoint, len(threads))
	sweepPoints(len(threads), func(i int) {
		t := threads[i]
		var part machine.Partition
		if dev.IsPhi() {
			part = machine.PhiThreadsPartition(n, dev, t)
			// Partition is balanced (threads spread over cores); the
			// stream count is the requested thread count.
			part = exactThreads(part, t)
		} else {
			tpc := 1
			cores := t
			if t > n.HostCores() {
				tpc = 2
				cores = (t + 1) / 2
			}
			part = machine.HostCoresPartition(n, cores, tpc)
		}
		out[i] = StreamPoint{Threads: t, TriadGBs: TriadBandwidth(part, cfg)}
	})
	return out
}

// exactThreads trims a balanced partition so Threads() equals t when t is
// not an exact multiple of the per-core thread count. The model only needs
// the product, so we fold the remainder into the core count.
func exactThreads(p machine.Partition, t int) machine.Partition {
	if p.Threads() == t {
		return p
	}
	q := p
	q.Cores = t / q.ThreadsPerCore
	if q.Cores < 1 {
		q.Cores = 1
	}
	return q
}

// Triad runs a real STREAM triad kernel a[i] = b[i] + scalar*c[i]. The
// simulator charges virtual time elsewhere; this function exists so that
// examples and tests exercise genuine data movement and arithmetic.
func Triad(a, b, c []float64, scalar float64) error {
	if len(a) != len(b) || len(a) != len(c) {
		return fmt.Errorf("memsim: triad length mismatch (%d/%d/%d)", len(a), len(b), len(c))
	}
	for i := range a {
		a[i] = b[i] + scalar*c[i]
	}
	return nil
}
