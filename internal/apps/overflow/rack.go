package overflow

import (
	"fmt"

	"maia/internal/core"
	"maia/internal/machine"
	"maia/internal/pcie"
	"maia/internal/simfault"
	"maia/internal/simmpi"
	"maia/internal/vclock"
)

// Rack-scale OVERFLOW: the overset grid system strong-scaled across
// the hypercube fabric. Every node runs the same local configuration
// (host ranks, optionally ranks on each Phi), so the per-node compute
// profile is identical across nodes and the step prices on the
// hierarchical replay — one time step of the full 128-node system in
// closed form.
//
// The paper's load-imbalance story carries over: the production
// balancer's Phi bias (phiBalanceBias) skews the per-rank point shares
// inside every node, which the script expresses as per-local-index
// compute. The overset fringe interpolation, whose donors are
// scattered across the whole grid system, becomes a global Alltoall;
// the residual norm is the usual Allreduce.

// RackDataset is the rack-sized grid system: 16x the DLRF6-Large
// points over 4x the zones — enough work that 128 nodes still hold
// several million points each.
func RackDataset() Dataset { return synthesize("DLRF6-Rack", 92, 574_400_000, 41) }

// RackConfig describes a rack-scale run: Nodes identical nodes, each
// with HostCombo ranks on the host and PhiCombo ranks on EACH Phi
// (PhiCombo.Ranks == 0 for host-only runs).
type RackConfig struct {
	Nodes     int
	HostCombo Combo
	PhiCombo  Combo
	Software  pcie.Software
	// Faults, when non-nil, prices the step on the degraded machine.
	// Faulted worlds refuse the replay and run the goroutine engine, so
	// keep the node count modest.
	Faults *simfault.Plan
}

// PerNode returns the MPI ranks each node hosts.
func (c RackConfig) PerNode() int { return c.HostCombo.Ranks + 2*c.PhiCombo.Ranks }

// RackHostOnly is the baseline configuration: 16 host ranks per node,
// no coprocessors.
func RackHostOnly(nodes int) RackConfig {
	return RackConfig{Nodes: nodes, HostCombo: Combo{16, 1}}
}

// RackStepTime prices one time step of the rack dataset strong-scaled
// over cfg.Nodes nodes — the rack-scale analogue of Figure 23's
// wallclock per step. opts thread into the simmpi world (tracing; a
// fault plan can also come via cfg.Faults).
func RackStepTime(m core.Model, node *machine.Node, cfg RackConfig, opts ...simmpi.Option) (vclock.Time, error) {
	if cfg.Nodes < 2 {
		return 0, fmt.Errorf("overflow: rack step needs at least 2 nodes, got %d", cfg.Nodes)
	}
	per := cfg.PerNode()
	if per < 1 {
		return 0, fmt.Errorf("overflow: rack config places no ranks on a node")
	}
	d := RackDataset()
	nodePoints := d.TotalPoints() / int64(cfg.Nodes)

	// Local placement and balancer-estimated speeds, identical on every
	// node: the static balancer overfeeds the Phi ranks as in Figure 23.
	locs, combos, devs, speeds := symmetricSetup(m, node,
		SymmetricConfig{HostCombo: cfg.HostCombo, PhiCombo: cfg.PhiCombo})
	var totalSpeed float64
	for _, sp := range speeds {
		totalSpeed += sp
	}

	// Continuous biased split of the node's points (the splitter's
	// plane-granularity residual is a per-node constant here, so the
	// continuous split keeps nodes identical), priced per local rank.
	// Zone count per rank sets the OpenMP region overhead.
	zonesPerRank := len(d.Zones) / (cfg.Nodes * per)
	if zonesPerRank < 1 {
		zonesPerRank = 1
	}
	computes := make([]vclock.Time, per)
	for j := range computes {
		share := int64(float64(nodePoints) * speeds[j] / totalSpeed)
		if share < 1 {
			share = 1
		}
		pieces := make([]Piece, zonesPerRank)
		for z := range pieces {
			pieces[z] = Piece{Zone: z, Points: share / int64(zonesPerRank)}
		}
		computes[j] = rankStepTime(m, node, devs[j], combos[j], pieces)
	}

	// Fringe interpolation: ~15% of a rank's points at 7 variables of 8
	// bytes, traded with donors across the whole system.
	ranks := cfg.Nodes * per
	fringeBytes := int(0.15 * float64(nodePoints) / float64(per) * 56)
	block := fringeBytes / ranks
	if block < 64 {
		block = 64
	}
	steps := []simmpi.SeqStep{
		{ComputePer: computes, Kind: simmpi.AlltoallKind, Bytes: block},
		{Kind: simmpi.AllreduceKind, Bytes: 8},
	}

	wcfg := simmpi.Config{
		Ranks:  simmpi.ReplicateNodes(locs, cfg.Nodes),
		Fabric: machine.NewRackFabric(cfg.Nodes),
	}
	if cfg.PhiCombo.Ranks > 0 {
		wcfg.Stack = pcie.NewStack(cfg.Software)
	}
	return simmpi.SeqTime(wcfg, steps, 1, append([]simmpi.Option{simmpi.WithFaultPlan(cfg.Faults)}, opts...)...)
}
