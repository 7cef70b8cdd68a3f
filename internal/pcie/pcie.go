// Package pcie models the PCI Express paths between the host and the two
// Phi coprocessors of a Maia node, including the two DAPL providers the
// Intel MPI library chooses between and the pre-/post-update software
// stacks whose difference the paper measures (Section 5, Figures 7–9), and
// the offload-mode DMA path (Figure 18).
//
// Three physical paths exist (Figure 1): host to Phi0 (one PCIe hop), host
// to Phi1 (crosses the socket-to-socket QPI first, hence higher latency),
// and Phi0 to Phi1 (PCIe peer-to-peer). Two DAPL providers serve MPI
// traffic:
//
//   - CCL Direct (ofa-v2-mlx4_0-1): lowest latency, modest bandwidth;
//   - SCIF (ofa-v2-scif0): higher latency setup, much higher bandwidth.
//
// The pre-update stack (MPSS Gold, Intel MPI 4.1.0.030) uses CCL Direct
// for all message sizes. The post-update stack (MPSS Gold update 3, MPI
// 4.1.1.036) switches provider and protocol by message size:
//
//	<= 8 KB            eager protocol, CCL Direct
//	8 KB .. 256 KB     rendezvous direct-copy, CCL Direct
//	> 256 KB           rendezvous direct-copy, DAPL over SCIF
package pcie

import (
	"fmt"

	"maia/internal/vclock"
)

// Path identifies one intra-node PCIe communication path.
type Path int

const (
	// HostPhi0 is host <-> the Phi on the first PCIe bus.
	HostPhi0 Path = iota
	// HostPhi1 is host <-> the Phi on the second PCIe bus (via QPI).
	HostPhi1
	// Phi0Phi1 is coprocessor <-> coprocessor peer-to-peer.
	Phi0Phi1
	numPaths
)

// String implements fmt.Stringer.
func (p Path) String() string {
	switch p {
	case HostPhi0:
		return "host-Phi0"
	case HostPhi1:
		return "host-Phi1"
	case Phi0Phi1:
		return "Phi0-Phi1"
	default:
		return fmt.Sprintf("Path(%d)", int(p))
	}
}

// Paths lists all three paths in display order.
func Paths() []Path { return []Path{HostPhi0, HostPhi1, Phi0Phi1} }

// Provider is a DAPL provider.
type Provider int

const (
	// CCLDirect is the Coprocessor Communication Link direct provider
	// (ofa-v2-mlx4_0-1): lowest latency, available on all segments.
	CCLDirect Provider = iota
	// SCIF is the Symmetric Communication Interface provider
	// (ofa-v2-scif0): a higher-bandwidth data path over PCIe.
	SCIF
)

// String implements fmt.Stringer.
func (p Provider) String() string {
	if p == SCIF {
		return "ofa-v2-scif0"
	}
	return "ofa-v2-mlx4_0-1"
}

// Protocol is the MPI point-to-point wire protocol.
type Protocol int

const (
	// Eager sends the payload immediately with the envelope.
	Eager Protocol = iota
	// RendezvousDirect handshakes first, then copies directly; it costs
	// an extra round trip but avoids intermediate buffering.
	RendezvousDirect
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	if p == RendezvousDirect {
		return "rendezvous direct-copy"
	}
	return "eager"
}

// DAPLConfig mirrors the two environment variables the paper sets to get
// size-based provider switching:
//
//	I_MPI_DAPL_DIRECT_COPY_THRESHOLD=8192,262144
//	I_MPI_DAPL_PROVIDER_LIST=ofa-v2-mlx4_0-1,ofa-v2-scif0
type DAPLConfig struct {
	EagerMaxBytes       int // below or equal: eager protocol
	ProviderSwitchBytes int // above: second provider (SCIF)
	Providers           [2]Provider
}

// DefaultDAPLConfig returns the post-update configuration from Section 5.
func DefaultDAPLConfig() DAPLConfig {
	return DAPLConfig{
		EagerMaxBytes:       8192,
		ProviderSwitchBytes: 262144,
		Providers:           [2]Provider{CCLDirect, SCIF},
	}
}

// Software selects the software environment of Section 5.
type Software int

const (
	// PreUpdate is MPSS Gold + Intel MPI 4.1.0.030: CCL Direct for all
	// message sizes, with the host-Phi1 bandwidth asymmetry.
	PreUpdate Software = iota
	// PostUpdate is MPSS Gold update 3 + Intel MPI 4.1.1.036 with the
	// DAPL environment variables set: provider switching, symmetric
	// bandwidth, SCIF for large messages.
	PostUpdate
)

// String implements fmt.Stringer.
func (s Software) String() string {
	if s == PostUpdate {
		return "post-update"
	}
	return "pre-update"
}

// pathParams are the calibrated per-path constants of one provider.
type pathParams struct {
	latency vclock.Time // one-way small-message latency
	gbs     float64     // sustained one-direction bandwidth, GB/s
}

// Stack is one software environment's view of the PCIe fabric. It answers
// timing questions for MPI-over-PCIe traffic.
type Stack struct {
	sw   Software
	cfg  DAPLConfig
	ccl  [numPaths]pathParams
	scif [numPaths]pathParams
}

// NewStack returns the transport model for the given software environment,
// calibrated to the paper's Figures 7 and 8.
func NewStack(sw Software) *Stack {
	s := &Stack{sw: sw, cfg: DefaultDAPLConfig()}
	switch sw {
	case PreUpdate:
		// Figure 7 pre-update latencies; Figure 8 pre-update 4 MB
		// bandwidths (1.6 GB/s, 455 MB/s, 444 MB/s). The host-Phi1
		// asymmetry is the defect the update fixed.
		s.ccl = [numPaths]pathParams{
			HostPhi0: {3.3 * vclock.Microsecond, 1.6},
			HostPhi1: {4.6 * vclock.Microsecond, 0.455},
			Phi0Phi1: {6.3 * vclock.Microsecond, 0.444},
		}
		// Pre-update never routes to SCIF; mirror CCL so Route stays
		// total.
		s.scif = s.ccl
	case PostUpdate:
		// Figure 7 post-update latencies; small/medium CCL bandwidth
		// improves by the Figure 9 factor (~1.4x); SCIF reaches 6 GB/s
		// on both host paths and 899 MB/s peer-to-peer.
		s.ccl = [numPaths]pathParams{
			HostPhi0: {3.3 * vclock.Microsecond, 2.24},
			HostPhi1: {4.1 * vclock.Microsecond, 0.64},
			Phi0Phi1: {6.6 * vclock.Microsecond, 0.62},
		}
		// Wire rates are set slightly above the measured effective
		// bandwidths so that, after handshake and latency overheads,
		// a 4 MB transfer lands on the paper's 6 / 6 / 0.899 GB/s.
		s.scif = [numPaths]pathParams{
			HostPhi0: {6.6 * vclock.Microsecond, 6.13},
			HostPhi1: {8.2 * vclock.Microsecond, 6.13},
			Phi0Phi1: {13.2 * vclock.Microsecond, 0.904},
		}
	default:
		panic(fmt.Sprintf("pcie: unknown software %d", int(sw)))
	}
	return s
}

// SetDAPLConfig overrides the provider/protocol thresholds (used by the
// ablation benchmarks). It has no effect on a pre-update stack, which
// ignores thresholds by construction.
func (s *Stack) SetDAPLConfig(cfg DAPLConfig) { s.cfg = cfg }

// Route returns the provider and protocol used for a message of the given
// size on this stack.
func (s *Stack) Route(msgBytes int) (Provider, Protocol) {
	proto := Eager
	if msgBytes > s.cfg.EagerMaxBytes {
		proto = RendezvousDirect
	}
	if s.sw == PreUpdate {
		return CCLDirect, proto
	}
	if msgBytes > s.cfg.ProviderSwitchBytes {
		return SCIF, proto
	}
	return CCLDirect, proto
}

// Latency returns the small-message one-way MPI latency of a path
// (Figure 7).
func (s *Stack) Latency(p Path) vclock.Time { return s.ccl[p].latency }

// TransferTime returns the one-way time to move msgBytes across path p,
// including protocol overheads: eager messages pay the base latency;
// rendezvous messages pay an extra handshake round trip.
func (s *Stack) TransferTime(p Path, msgBytes int) vclock.Time {
	prov, proto := s.Route(msgBytes)
	params := s.ccl[p]
	if prov == SCIF {
		params = s.scif[p]
	}
	t := params.latency
	if proto == RendezvousDirect {
		t += 2 * s.ccl[p].latency // handshake runs over the low-latency provider
	}
	return t + vclock.Time(float64(msgBytes)/(params.gbs*1e9))
}

// Bandwidth returns the effective bandwidth in GB/s seen by a ping-pong
// style benchmark for the given message size (Figure 8).
func (s *Stack) Bandwidth(p Path, msgBytes int) float64 {
	if msgBytes <= 0 {
		return 0
	}
	return float64(msgBytes) / s.TransferTime(p, msgBytes).Seconds() / 1e9
}
