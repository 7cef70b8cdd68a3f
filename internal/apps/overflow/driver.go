package overflow

import (
	"fmt"

	"maia/internal/core"
	"maia/internal/machine"
	"maia/internal/pcie"
	"maia/internal/simfault"
	"maia/internal/simmpi"
	"maia/internal/simomp"
	"maia/internal/vclock"
)

// Performance drivers for Figures 22 and 23. OVERFLOW's character per the
// paper: implicit line solves streaming through large structured zones —
// memory-bandwidth-bound ("the performance of OVERFLOW depends on the
// bandwidth of the memory subsystem"), with non-unit-stride vectorization
// (Section 7 pairs it with CG's gather/scatter problem).

// perPoint is the modeled per-grid-point per-step operation count.
const (
	flopsPerPoint = 1500.0
	bytesPerPoint = 1100.0
)

// workloadFor returns the core.Workload of `points` grid points for one
// time step.
func workloadFor(points int64) core.Workload {
	return core.Workload{
		Name:             "OVERFLOW step",
		Flops:            float64(points) * flopsPerPoint,
		Bytes:            float64(points) * bytesPerPoint,
		VecFraction:      0.55,
		Stride:           core.Strided,
		Reuse:            0.35,
		ParallelFraction: 0.997,
	}
}

// Combo is an (I x J) run configuration: I MPI ranks with J OpenMP
// threads each.
type Combo struct{ Ranks, Threads int }

// String formats the paper's "I x J" notation.
func (c Combo) String() string { return fmt.Sprintf("%dx%d", c.Ranks, c.Threads) }

// HostCombos are the Figure 22 host configurations (16 threads total).
func HostCombos() []Combo {
	return []Combo{{16, 1}, {8, 2}, {4, 4}, {2, 8}, {1, 16}}
}

// PhiCombos are the Figure 22 Phi configurations.
func PhiCombos() []Combo {
	return []Combo{{4, 14}, {8, 14}, {4, 28}, {8, 28}}
}

// rankPartition returns the execution resources of ONE rank in a combo.
func rankPartition(node *machine.Node, dev machine.Device, c Combo) machine.Partition {
	if dev.IsPhi() {
		total := c.Ranks * c.Threads
		tpc := (total + node.PhiProc.Cores - 1) / node.PhiProc.Cores
		if tpc < 1 {
			tpc = 1
		}
		if tpc > node.PhiProc.ThreadsPerCore {
			tpc = node.PhiProc.ThreadsPerCore
		}
		cores := (c.Threads + tpc - 1) / tpc
		return machine.PhiPartition(node, dev, cores, tpc)
	}
	cores := c.Threads
	tpc := 1
	if cores > node.HostCores() {
		cores = node.HostCores()
		tpc = 2
	}
	return machine.HostCoresPartition(node, cores, tpc)
}

// devicePartition returns ALL the resources a combo occupies on one
// device (every rank's cores together). Memory bandwidth is a device
// resource shared by the combo's ranks, so per-rank times must be priced
// against the full partition, not a per-rank slice of the saturation
// curve.
func devicePartition(node *machine.Node, dev machine.Device, c Combo) machine.Partition {
	per := rankPartition(node, dev, c)
	cores := per.Cores * c.Ranks
	if dev.IsPhi() {
		if cores > node.PhiProc.Cores {
			cores = node.PhiProc.Cores
		}
		return machine.PhiPartition(node, dev, cores, per.ThreadsPerCore)
	}
	if cores > node.HostCores() {
		cores = node.HostCores()
	}
	return machine.HostCoresPartition(node, cores, per.ThreadsPerCore)
}

// rankStepTime prices one rank's compute share of one time step: the
// rank's points at the full device partition's per-point rate (times the
// rank count, since the rank holds 1/ranks of the device), plus the
// OpenMP region overheads of its per-zone ADI sweeps, plus the NUMA
// penalty when one host rank spans both sockets.
func rankStepTime(m core.Model, node *machine.Node, dev machine.Device, c Combo,
	pieces []Piece) vclock.Time {
	full := devicePartition(node, dev, c)
	w := workloadFor(Load(pieces))
	t := m.Time(w, full) * vclock.Time(c.Ranks)
	if !dev.IsPhi() {
		// On the host, OVERFLOW's loop-level OpenMP is less efficient
		// than its MPI domain decomposition (serial stretches between
		// parallel loops, poorer locality), so performance decreases as
		// threads per rank grow — the Figure 22 host ordering.
		t *= vclock.Time(1 + 0.02*float64(c.Threads-1))
		if c.Threads > node.HostProc.Cores {
			// A single rank's arrays span both sockets: remote-socket
			// accesses tax the bandwidth-bound sweeps.
			t *= 1.25
		}
	}
	rt := simomp.New(rankPartition(node, dev, c))
	const regionsPerZoneStep = 4 // forcing + three directional sweeps
	regions := vclock.Time(len(pieces) * regionsPerZoneStep)
	t += regions*rt.SyncOverhead(simomp.ParallelFor) + rt.SyncOverhead(simomp.Reduction)
	return t
}

// StepTime prices one time step of a dataset on one device under a
// combo: decompose the zones over the ranks, then run one representative
// step through simmpi (compute + interface exchanges + residual
// allreduce) and return the makespan — the "wallclock time per step" of
// Figures 22 and 23.
func StepTime(m core.Model, node *machine.Node, dev machine.Device, c Combo, d Dataset) (vclock.Time, error) {
	speeds := make([]float64, c.Ranks)
	for i := range speeds {
		speeds[i] = 1
	}
	assignment, err := Decompose(d, speeds)
	if err != nil {
		return 0, err
	}
	var locs []simmpi.Location
	combos := make([]Combo, c.Ranks)
	devs := make([]machine.Device, c.Ranks)
	tpc := rankPartition(node, dev, c).ThreadsPerCore
	for i := 0; i < c.Ranks; i++ {
		locs = append(locs, simmpi.Location{Device: dev, ThreadsPerCore: tpc})
		combos[i] = c
		devs[i] = dev
	}
	t, _, _, err := runStepMixed(m, node, combos, devs, assignment, locs, nil, nil)
	return t, err
}

// Fig22 returns the wallclock-per-step map for the native-mode combos of
// Figure 22 on DLRF6-Medium: host combos and Phi combos.
func Fig22(m core.Model, node *machine.Node) (host, phi map[Combo]vclock.Time, err error) {
	d := DLRF6Medium()
	host = make(map[Combo]vclock.Time)
	phi = make(map[Combo]vclock.Time)
	for _, c := range HostCombos() {
		t, err := StepTime(m, node, machine.Host, c, d)
		if err != nil {
			return nil, nil, err
		}
		host[c] = t
	}
	for _, c := range PhiCombos() {
		t, err := StepTime(m, node, machine.Phi0, c, d)
		if err != nil {
			return nil, nil, err
		}
		phi[c] = t
	}
	return host, phi, nil
}

// SymmetricConfig describes a Figure 23 symmetric run: host ranks plus
// ranks on each Phi.
type SymmetricConfig struct {
	HostCombo Combo // ranks x threads on the host
	PhiCombo  Combo // ranks x threads on EACH Phi
	Software  pcie.Software
	// Faults, when non-nil, prices the step on the degraded machine the
	// plan describes (straggler/throttled devices, lossy fabrics).
	Faults *simfault.Plan
}

// SymmetricStepTime prices one DLRF6-Large step in symmetric mode: the
// zone system is balanced across host and Phi ranks by their modeled
// speeds, then a representative step runs over the mixed-device world
// with the selected PCIe software stack.
func SymmetricStepTime(m core.Model, node *machine.Node, cfg SymmetricConfig) (vclock.Time, error) {
	t, _, err := SymmetricStepProfile(m, node, cfg)
	return t, err
}

// SymmetricStepProfile is SymmetricStepTime plus the MPInside-style
// breakdown: where each rank's time went, and how balanced the compute
// ended up — the quantitative form of Section 6.9.1.3's finding that
// "communication time and overhead due to load imbalance" outweigh the
// coprocessors' speedup.
func SymmetricStepProfile(m core.Model, node *machine.Node, cfg SymmetricConfig) (vclock.Time, simmpi.ProfileSummary, error) {
	locs, combos, devs, speeds := symmetricSetup(m, node, cfg)
	assignment, err := Decompose(DLRF6Large(), speeds)
	if err != nil {
		return 0, simmpi.ProfileSummary{}, err
	}
	t, prof, _, err := runStepMixed(m, node, combos, devs, assignment, locs,
		pcie.NewStack(cfg.Software), cfg.Faults)
	return t, prof, err
}

// phiBalanceBias is how much the production balancer overestimates a
// Phi rank's speed: its weights come from kernel benchmarks and card
// peak, while delivered OVERFLOW throughput is bandwidth-bound and
// zone-shape-sensitive. The resulting overload of the Phi ranks is the
// "overhead due to load imbalance" of Section 6.9.1.3. The static
// balancer is also blind to degradation a fault plan injects — that
// blindness is what SymmetricStepRebalanced repairs.
const phiBalanceBias = 1.5

// symmetricSetup builds the rank placement of a symmetric run and the
// production balancer's estimated per-rank speeds.
func symmetricSetup(m core.Model, node *machine.Node, cfg SymmetricConfig) (
	locs []simmpi.Location, combos []Combo, devs []machine.Device, speeds []float64) {
	n := cfg.HostCombo.Ranks + 2*cfg.PhiCombo.Ranks
	locs = make([]simmpi.Location, 0, n)
	combos = make([]Combo, 0, n)
	devs = make([]machine.Device, 0, n)
	hostTpc := rankPartition(node, machine.Host, cfg.HostCombo).ThreadsPerCore
	for i := 0; i < cfg.HostCombo.Ranks; i++ {
		locs = append(locs, simmpi.Location{Device: machine.Host, ThreadsPerCore: hostTpc})
		combos = append(combos, cfg.HostCombo)
		devs = append(devs, machine.Host)
	}
	for _, phi := range []machine.Device{machine.Phi0, machine.Phi1} {
		tpc := rankPartition(node, phi, cfg.PhiCombo).ThreadsPerCore
		for i := 0; i < cfg.PhiCombo.Ranks; i++ {
			locs = append(locs, simmpi.Location{Device: phi, ThreadsPerCore: tpc})
			combos = append(combos, cfg.PhiCombo)
			devs = append(devs, phi)
		}
	}
	// Load balance by estimated rank speed, biased by phiBalanceBias.
	speeds = make([]float64, len(locs))
	unit := workloadFor(1_000_000)
	for i := range speeds {
		full := devicePartition(node, devs[i], combos[i])
		speeds[i] = unit.Flops / m.Time(unit, full).Seconds() / float64(combos[i].Ranks)
		if devs[i].IsPhi() {
			speeds[i] *= phiBalanceBias
		}
	}
	return locs, combos, devs, speeds
}

// SymmetricStepRebalanced prices the symmetric step twice: first with
// the static speed-model decomposition, then again after a dynamic
// rebalance that redistributes zones by the per-rank compute times the
// first step actually measured (the load-balancing loop production
// overset codes run between steps). Under a fault plan the first step
// observes the stragglers and throttles directly, so the rebalance
// sheds zones from degraded ranks; on the healthy machine it just
// corrects the balancer's Phi bias. Both makespans are returned.
func SymmetricStepRebalanced(m core.Model, node *machine.Node, cfg SymmetricConfig) (static, rebalanced vclock.Time, err error) {
	d := DLRF6Large()
	locs, combos, devs, speeds := symmetricSetup(m, node, cfg)
	assignment, err := Decompose(d, speeds)
	if err != nil {
		return 0, 0, err
	}
	stack := pcie.NewStack(cfg.Software)
	static, _, perRank, err := runStepMixed(m, node, combos, devs, assignment, locs, stack, cfg.Faults)
	if err != nil {
		return 0, 0, err
	}
	// Measured speed: grid points actually processed per second of
	// observed compute time, degradation included.
	measured := make([]float64, len(perRank))
	for i, ct := range perRank {
		measured[i] = float64(Load(assignment[i])) / ct.Seconds()
	}
	reassignment, err := Decompose(d, measured)
	if err != nil {
		return 0, 0, err
	}
	rebalanced, _, _, err = runStepMixed(m, node, combos, devs, reassignment, locs, stack, cfg.Faults)
	if err != nil {
		return 0, 0, err
	}
	return static, rebalanced, nil
}

// stepScript expresses one representative OVERFLOW step as a SeqStep
// script: the per-rank OMP-region compute (already priced by the
// steady slowdown math in rankStepTime), the overset fringe exchange,
// and the residual allreduce. Each zone's fringe points are
// interpolated from donor zones scattered across the grid system, so
// every rank trades fringe data with a handful of partners — not just
// chain neighbours: one shifted-ring step per partner, with per-rank
// payloads of the rank's fringe volume (~15% of its points at 7
// variables of 8 bytes) split over the partners. A shift that is a
// multiple of the rank count degenerates to the one-rank shift.
func stepScript(computes []vclock.Time, assignment [][]Piece) []simmpi.SeqStep {
	ranks := len(computes)
	steps := make([]simmpi.SeqStep, 0, 5)
	steps = append(steps, simmpi.SeqStep{Kind: simmpi.ComputeStep, ComputePer: computes})
	if ranks > 1 {
		partners := 3
		if partners > ranks-1 {
			partners = ranks - 1
		}
		per := make([]int, ranks)
		for i := range per {
			fringeBytes := int(0.15 * float64(Load(assignment[i])) * 56)
			per[i] = fringeBytes / partners
			if per[i] < 64 {
				per[i] = 64
			}
		}
		for p := 1; p <= partners; p++ {
			steps = append(steps, simmpi.SeqStep{
				Kind:     simmpi.RingKind,
				Shift:    p*ranks/(partners+1) + 1,
				BytesPer: per,
			})
		}
	}
	steps = append(steps, simmpi.SeqStep{Kind: simmpi.AllreduceKind, Bytes: 8})
	return steps
}

// runStepMixed executes one representative step on a (possibly
// heterogeneous) world, returning the makespan, the MPI profile, and
// each rank's observed compute time (the signal the dynamic rebalancer
// keys on). plan, when non-nil, injects faults into the world: compute
// derating happens inside Rank.Compute, so the observed times include
// stragglers and throttle windows.
//
// Homogeneous healthy worlds (the Figure 22 ranks x threads sweep)
// replay the step script in closed form; on that path the observed
// compute IS the charged compute (no plan to derate it) and the profile
// summary is zero — the profile-consuming callers all build
// heterogeneous worlds, which run the script on the goroutine engine.
func runStepMixed(m core.Model, node *machine.Node, combos []Combo, devs []machine.Device,
	assignment [][]Piece, locs []simmpi.Location, stack *pcie.Stack,
	plan *simfault.Plan) (vclock.Time, simmpi.ProfileSummary, []vclock.Time, error) {
	// The step script only exchanges representative payload sizes (the
	// fringe contents are never read), so the transport runs size-only.
	w, err := simmpi.NewWorld(simmpi.Config{Ranks: locs, Stack: stack, SizeOnlyPayloads: true},
		simmpi.WithFaultPlan(plan))
	if err != nil {
		return 0, simmpi.ProfileSummary{}, nil, err
	}
	ranks := len(locs)
	computes := make([]vclock.Time, ranks)
	for i := range computes {
		computes[i] = rankStepTime(m, node, devs[i], combos[i], assignment[i])
	}
	steps := stepScript(computes, assignment)
	if t, ok := w.RepeatSeq(steps, 1); ok {
		return t, simmpi.ProfileSummary{}, computes, nil
	}
	if err := w.RunSeq(steps, 1); err != nil {
		return 0, simmpi.ProfileSummary{}, nil, err
	}
	observed := make([]vclock.Time, ranks)
	for i, p := range w.Profiles() {
		observed[i] = p.Compute
	}
	return w.MaxTime(), w.Summarize(), observed, nil
}

// HostOnlyStepTime prices DLRF6-Large on the host alone (16x1) — the
// baseline the paper's 1.9x symmetric speedup is measured against.
func HostOnlyStepTime(m core.Model, node *machine.Node) (vclock.Time, error) {
	return StepTime(m, node, machine.Host, Combo{16, 1}, DLRF6Large())
}

// TwoHostsStepTime prices DLRF6-Large on two host nodes (16x1 each)
// connected by InfiniBand — the paper's host1+host2 comparison that the
// symmetric mode fails to beat.
func TwoHostsStepTime(m core.Model, node *machine.Node) (vclock.Time, error) {
	d := DLRF6Large()
	const ranks = 32
	speeds := make([]float64, ranks)
	for i := range speeds {
		speeds[i] = 1
	}
	assignment, err := Decompose(d, speeds)
	if err != nil {
		return 0, err
	}
	locs := make([]simmpi.Location, ranks)
	combos := make([]Combo, ranks)
	devs := make([]machine.Device, ranks)
	for i := range locs {
		locs[i] = simmpi.Location{Device: machine.Host, ThreadsPerCore: 1, Node: i / 16}
		combos[i] = Combo{16, 1}
		devs[i] = machine.Host
	}
	t, _, _, err := runStepMixed(m, node, combos, devs, assignment, locs, nil, nil)
	return t, err
}
