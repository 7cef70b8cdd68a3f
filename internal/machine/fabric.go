package machine

// LinkSpec describes one point-to-point transport inside (or out of) a node.
type LinkSpec struct {
	Name string
	// RawGTs is the signalling rate in giga-transfers per second
	// (0 when not meaningful for the transport).
	RawGTs float64
	// PeakGBs is the peak data bandwidth in one direction, GB/s.
	PeakGBs float64
	// Lanes or links aggregated (QPI links, PCIe lanes).
	Lanes int
}

// QPI returns the socket-to-socket interconnect of the host: two QPI links
// at 8 GT/s moving 2 bytes per transfer per direction, 32 GB/s aggregate.
func QPI() LinkSpec {
	return LinkSpec{Name: "QPI", RawGTs: 8.0, PeakGBs: 32.0, Lanes: 2}
}

// PCIeGen2x16 returns the 16-lane PCI Express 2.0 connection of each Phi:
// 5 GT/s per lane with 8b/10b encoding, 8 GB/s peak payload per direction.
func PCIeGen2x16() LinkSpec {
	return LinkSpec{Name: "PCIe 2.0 x16", RawGTs: 5.0, PeakGBs: 8.0, Lanes: 16}
}

// FDRInfiniBand returns the inter-node fabric: 4x FDR InfiniBand,
// 56 Gbit/s per port (the paper quotes 56 GB/s peak network performance
// for the hypercube fabric as a whole).
func FDRInfiniBand() LinkSpec {
	return LinkSpec{Name: "4x FDR InfiniBand", RawGTs: 14.0625, PeakGBs: 7.0, Lanes: 4}
}
