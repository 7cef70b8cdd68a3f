package machine

import "fmt"

// Partition is a set of execution resources on one device of a node: the
// thing a native-mode program, one side of a symmetric run, or an offloaded
// region executes on.
type Partition struct {
	Device         Device
	Proc           ProcessorSpec
	Cores          int // physical cores in use
	ThreadsPerCore int // hardware threads used per core
	// UsesOSCore is true when the placement spills onto an OS-reserved
	// core (e.g. 240 threads on the Phi use the 60th core, which hosts
	// MPSS services; the paper's Fig 24 shows the penalty).
	UsesOSCore bool
}

// HostPartition returns a partition of the full 16-core host using the
// given number of threads per core (1 = one thread per core, 2 = with
// HyperThreading).
func HostPartition(n *Node, threadsPerCore int) Partition {
	p := n.HostProc
	return Partition{
		Device:         Host,
		Proc:           p,
		Cores:          n.HostCores(),
		ThreadsPerCore: clampThreads(threadsPerCore, p),
	}
}

// HostCoresPartition returns a host partition restricted to cores cores.
func HostCoresPartition(n *Node, cores, threadsPerCore int) Partition {
	p := HostPartition(n, threadsPerCore)
	if cores < 1 {
		cores = 1
	}
	if cores > p.Cores {
		cores = p.Cores
	}
	p.Cores = cores
	return p
}

// PhiPartition returns a partition on the given Phi card using the first
// `cores` cores with threadsPerCore threads each. Using all 60 cores marks
// the partition as touching the OS core.
func PhiPartition(n *Node, dev Device, cores, threadsPerCore int) Partition {
	if !dev.IsPhi() {
		panic(fmt.Sprintf("machine: PhiPartition on %v", dev))
	}
	p := n.PhiProc
	if cores < 1 {
		cores = 1
	}
	if cores > p.Cores {
		cores = p.Cores
	}
	return Partition{
		Device:         dev,
		Proc:           p,
		Cores:          cores,
		ThreadsPerCore: clampThreads(threadsPerCore, p),
		UsesOSCore:     cores > p.UsableCores(),
	}
}

// PhiThreadsPartition places exactly `threads` threads on a Phi the way the
// paper does: threads are distributed one per core first, so 59 threads is
// one thread on each usable core, 118 is two, 236 is four, and 240 spills
// onto the OS core.
func PhiThreadsPartition(n *Node, dev Device, threads int) Partition {
	p := n.PhiProc
	if threads < 1 {
		threads = 1
	}
	if threads > p.MaxThreads() {
		threads = p.MaxThreads()
	}
	// Balanced placement: one thread per core up to 60, then a second
	// context on each core, and so on — so 59 threads leave the OS core
	// free while 60 claim it.
	tpc := (threads + p.Cores - 1) / p.Cores
	cores := (threads + tpc - 1) / tpc
	part := PhiPartition(n, dev, cores, tpc)
	part.UsesOSCore = cores > p.UsableCores()
	return part
}

func clampThreads(t int, p ProcessorSpec) int {
	if t < 1 {
		return 1
	}
	if t > p.ThreadsPerCore {
		return p.ThreadsPerCore
	}
	return t
}

// Threads returns the total thread count of the partition.
func (p Partition) Threads() int { return p.Cores * p.ThreadsPerCore }

// String implements fmt.Stringer, e.g. "Phi0[59c x 3t]".
func (p Partition) String() string {
	return fmt.Sprintf("%v[%dc x %dt]", p.Device, p.Cores, p.ThreadsPerCore)
}
