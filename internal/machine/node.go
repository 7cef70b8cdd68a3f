package machine

import "fmt"

// Device identifies one of the three compute devices in a Maia node.
type Device int

const (
	// Host is the pair of Sandy Bridge sockets viewed as one 16-core,
	// cache-coherent NUMA system (the paper's "host").
	Host Device = iota
	// Phi0 is the Xeon Phi card on the first PCIe bus (shared with the
	// InfiniBand HCA).
	Phi0
	// Phi1 is the Xeon Phi card on the second PCIe bus. Reaching it from
	// the host crosses the socket-to-socket QPI as well, which is why the
	// paper measures higher latency to Phi1 than to Phi0.
	Phi1
)

// String implements fmt.Stringer.
func (d Device) String() string {
	switch d {
	case Host:
		return "host"
	case Phi0:
		return "Phi0"
	case Phi1:
		return "Phi1"
	default:
		return fmt.Sprintf("Device(%d)", int(d))
	}
}

// IsPhi reports whether d is one of the two coprocessors.
func (d Device) IsPhi() bool { return d == Phi0 || d == Phi1 }

// Node models one Maia node: two Sandy Bridge sockets sharing 32 GB of
// cache-coherent DDR3, and two Xeon Phi cards with 8 GB of GDDR5 each,
// attached by independent 16-lane PCIe 2.0 buses (Figure 1).
type Node struct {
	HostProc ProcessorSpec // per socket
	Sockets  int
	PhiProc  ProcessorSpec // per card
	Phis     int

	QPI       LinkSpec
	PCIe      LinkSpec // host <-> each Phi
	HCA       LinkSpec // InfiniBand adapter on the first PCIe bus
	HostMemGB int      // shared host memory
}

// NewNode returns the Maia node model.
func NewNode() *Node {
	return &Node{
		HostProc:  SandyBridge(),
		Sockets:   2,
		PhiProc:   XeonPhi5110P(),
		Phis:      2,
		QPI:       QPI(),
		PCIe:      PCIeGen2x16(),
		HCA:       FDRInfiniBand(),
		HostMemGB: 32,
	}
}

// Clone returns an independent deep copy of the node: the processor
// specs (including their cache-level slices) are copied, so concurrent
// users of clones share no mutable state.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := *n
	c.HostProc = n.HostProc.Clone()
	c.PhiProc = n.PhiProc.Clone()
	return &c
}

// HostCores returns the total host core count (both sockets).
func (n *Node) HostCores() int { return n.HostProc.Cores * n.Sockets }

// HostPeakGflops returns the peak of both host sockets combined.
func (n *Node) HostPeakGflops() float64 {
	return n.HostProc.PeakGflops() * float64(n.Sockets)
}

// PhiPeakGflops returns the peak of one coprocessor.
func (n *Node) PhiPeakGflops() float64 { return n.PhiProc.PeakGflops() }

// MemGB returns the total memory of the node (host + both Phis).
func (n *Node) MemGB() int {
	return n.HostMemGB + n.Phis*n.PhiProc.MemGB
}

// System models the full Maia installation.
type System struct {
	Name  string
	Nodes int
	Node  *Node

	Interconnect string // inter-node fabric topology
	FileSystem   string
	Compiler     string
	MPILibrary   string
	MathLibrary  string
	OS           string
}

// NewSystem returns the model of the 128-node Maia system (Table 1).
func NewSystem() *System {
	return &System{
		Name:         "Maia (SGI Rackable C1104G-RP5)",
		Nodes:        128,
		Node:         NewNode(),
		Interconnect: "4x FDR InfiniBand, hypercube",
		FileSystem:   "Lustre",
		Compiler:     "Intel 13.1",
		MPILibrary:   "Intel MPI 4.1",
		MathLibrary:  "Intel MKL 10.1",
		OS:           "SLES11SP2 / MPSS Gold",
	}
}

// TotalHostCores returns the Sandy Bridge core count of the system (2048).
func (s *System) TotalHostCores() int { return s.Nodes * s.Node.HostCores() }

// TotalPhiCores returns the Phi core count of the system (15360).
func (s *System) TotalPhiCores() int {
	return s.Nodes * s.Node.Phis * s.Node.PhiProc.Cores
}

// PeakTflops returns (host, phi, total) system peak in Tflop/s. The paper
// quotes 42.6 + 258.8 = 301.4 Tflop/s.
func (s *System) PeakTflops() (host, phi, total float64) {
	host = float64(s.Nodes) * s.Node.HostPeakGflops() / 1000
	phi = float64(s.Nodes*s.Node.Phis) * s.Node.PhiPeakGflops() / 1000
	return host, phi, host + phi
}
