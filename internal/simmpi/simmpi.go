// Package simmpi is a virtual-time MPI runtime. Ranks are goroutines that
// exchange messages through a deterministic matching engine (real bytes,
// or only their lengths in a size-only world); every
// transfer is charged virtual time from a LogGP-style cost model over the
// modeled fabrics:
//
//   - intra-host: shared-memory transport between Sandy Bridge cores;
//   - intra-Phi: shared-memory transport between Phi cores, whose
//     latency and bandwidth degrade sharply as hardware threads per core
//     grow (the paper's Figure 10: one thread per core is best for
//     communication-dominant code);
//   - host<->Phi and Phi<->Phi: the PCIe DAPL stacks of package pcie,
//     pre- or post-update.
//
// Collective operations (Bcast, Reduce, Allreduce, Allgather, Alltoall,
// Barrier) are implemented on top of point-to-point messages with the
// classic algorithms real MPI libraries use, including size-based
// algorithm switching — which is what produces the abrupt step the paper
// observes in MPI_Allgather at 2–4 KB (Figure 13).
//
// Virtual time is deterministic: it depends only on the program and the
// machine model, never on the Go scheduler.
package simmpi

import (
	"fmt"
	"sync"

	"maia/internal/machine"
	"maia/internal/pcie"
	"maia/internal/simfault"
	"maia/internal/simtrace"
	"maia/internal/vclock"
)

// Location places one rank on the cluster.
type Location struct {
	Device machine.Device
	// ThreadsPerCore is the hardware-thread oversubscription of the
	// rank's core (1–4 on the Phi, 1–2 on the host). It sets the
	// intra-device transport parameters.
	ThreadsPerCore int
	// Node is the cluster node index; ranks on different nodes
	// communicate over the FDR InfiniBand fabric (used by the paper's
	// host1+host2 comparison in Section 6.9.1.3).
	Node int
}

// Config describes a world of ranks.
type Config struct {
	// Ranks places each rank; len(Ranks) is the world size.
	Ranks []Location
	// Stack is the PCIe software environment used for cross-device
	// messages. Defaults to the post-update stack.
	Stack *pcie.Stack
	// EagerMaxBytes is the intra-device eager/rendezvous threshold.
	// Zero selects the 8 KB default.
	EagerMaxBytes int
	// AllgatherSwitchBytes is the per-rank message size above which
	// Allgather switches from recursive doubling to the ring algorithm
	// (the Figure 13 jump). Zero selects the 2 KB default.
	AllgatherSwitchBytes int
	// BcastLongBytes is the payload size above which Bcast switches
	// from the binomial tree to van de Geijn scatter+allgather. Zero
	// selects the 512 KB default.
	BcastLongBytes int
	// Tracer, when non-nil, records a virtual-time span per MPI
	// operation (named with the algorithm actually chosen, e.g.
	// "MPI_Allgather[ring]"), per transport flight (category "pcie",
	// named by fabric), and per sender-side injection, plus
	// message/byte/barrier counters. Nil disables tracing at zero cost.
	Tracer *simtrace.Tracer
	// TraceLabel prefixes the per-rank track names ("label/rank3"), so
	// several worlds can share one tracer without track collisions.
	TraceLabel string
	// SizeOnlyPayloads declares that the world's rank bodies never read
	// message contents — only sizes matter. Messages then carry their
	// length and no bytes: the transport allocates no payload buffer, so
	// host memory does not grow with the modeled message size. All
	// virtual times, profiles, and trace records derive from lengths
	// alone, so modeled results are identical to a content-preserving
	// run. The byte-slice API still hands out exact-length slices, with
	// unspecified contents. Communication-pattern scripts (RunSeq,
	// SeqTime, the IMB-style micro-benchmarks) run in this mode.
	SizeOnlyPayloads bool
	// Faults, when non-nil, is the deterministic fault plan the world
	// runs under: straggler/throttle compute derating and lossy-fabric
	// flight derating with virtual-time delivery deadlines, retransmits,
	// and exponential backoff. All waiting is charged to the virtual
	// clock, never wall clock. Nil (or an empty plan) is the healthy
	// machine and leaves every modeled number bit-identical.
	Faults *simfault.Plan
	// Fabric, when non-nil, prices inter-node messages over the rack's
	// hypercube topology (hop-count latency and bandwidth derating)
	// instead of the flat single-hop constants. When the placement is
	// node-major (rank i on node i/perNode, equal blocks, >= 2 nodes)
	// the world additionally becomes two-level: collectives decompose
	// into an intra-node phase, an inter-node phase among node leaders,
	// and an intra-node distribution phase (see hier.go). Nil keeps the
	// single-node model and the legacy flat two-host constants.
	Fabric *machine.InterNodeFabric
}

// Option adjusts a Config at world construction. Options are the one
// idiom for attaching cross-cutting concerns (tracing, fault plans, the
// PCIe software stack) across the simulated runtimes: simmpi.NewWorld,
// simomp.New, offload.NewEngine, and harness.DefaultEnv all accept the
// same shape.
type Option func(*Config)

// WithTracer attaches a simtrace tracer, with the track-name prefix the
// world's per-rank tracks appear under ("label/rank3"). A nil tracer
// leaves tracing off at zero cost.
func WithTracer(t *simtrace.Tracer, label string) Option {
	return func(c *Config) {
		c.Tracer = t
		c.TraceLabel = label
	}
}

// WithFaultPlan runs the world under a deterministic fault plan. A nil
// plan injects nothing.
func WithFaultPlan(p *simfault.Plan) Option {
	return func(c *Config) { c.Faults = p }
}

// WithStack selects the PCIe software environment for cross-device
// messages.
func WithStack(s *pcie.Stack) Option {
	return func(c *Config) { c.Stack = s }
}

// WithFabric attaches the rack-level interconnect model: inter-node
// messages are then priced by hypercube hop count, and node-major worlds
// run hierarchical collectives. A nil fabric keeps the single-node model.
func WithFabric(f *machine.InterNodeFabric) Option {
	return func(c *Config) { c.Fabric = f }
}

// HostPlacement places n ranks on the host at the given threads per core.
func HostPlacement(n, threadsPerCore int) []Location {
	locs := make([]Location, n)
	for i := range locs {
		locs[i] = Location{Device: machine.Host, ThreadsPerCore: threadsPerCore}
	}
	return locs
}

// PhiPlacement places n ranks on a Phi at the given threads per core.
func PhiPlacement(dev machine.Device, n, threadsPerCore int) []Location {
	locs := make([]Location, n)
	for i := range locs {
		locs[i] = Location{Device: dev, ThreadsPerCore: threadsPerCore}
	}
	return locs
}

// RackPlacement places nodes x perNode ranks node-major: rank i lives on
// node i/perNode, all on the same device at the given threads per core.
// Pair it with WithFabric to build a two-level rack world.
func RackPlacement(dev machine.Device, nodes, perNode, threadsPerCore int) []Location {
	locs := make([]Location, nodes*perNode)
	for i := range locs {
		locs[i] = Location{Device: dev, ThreadsPerCore: threadsPerCore, Node: i / perNode}
	}
	return locs
}

// ReplicateNodes tiles one node's rank layout across nodes, node-major:
// rank i is nodeLocs[i%len(nodeLocs)] placed on node i/len(nodeLocs).
// Use it for mixed host+Phi per-node layouts at rack scale.
func ReplicateNodes(nodeLocs []Location, nodes int) []Location {
	per := len(nodeLocs)
	locs := make([]Location, nodes*per)
	for i := range locs {
		l := nodeLocs[i%per]
		l.Node = i / per
		locs[i] = l
	}
	return locs
}

// intraParams returns the LogGP parameters (one-way latency, bandwidth in
// GB/s) for messages between two ranks on the same device, calibrated to
// Figure 10: the host transport, and the Phi transport at 1–4 threads per
// core.
func intraParams(dev machine.Device, tpc int) (alpha vclock.Time, gbs float64) {
	if !dev.IsPhi() {
		return 0.4 * vclock.Microsecond, 5.0
	}
	switch {
	case tpc <= 1:
		return 1.0 * vclock.Microsecond, 3.85
	case tpc == 2:
		return 3.6 * vclock.Microsecond, 1.6
	case tpc == 3:
		return 9.0 * vclock.Microsecond, 0.62
	default:
		return 21.6 * vclock.Microsecond, 0.21
	}
}

// pciePath maps a device pair to its PCIe path.
func pciePath(a, b machine.Device) pcie.Path {
	switch {
	case a == machine.Phi0 && b == machine.Phi1,
		a == machine.Phi1 && b == machine.Phi0:
		return pcie.Phi0Phi1
	case a == machine.Phi1 || b == machine.Phi1:
		return pcie.HostPhi1
	default:
		return pcie.HostPhi0
	}
}

// message is one in-flight point-to-point message.
type message struct {
	tag  int
	data payload
	// sendTime is the sender's virtual clock when the send was posted.
	sendTime vclock.Time
	// seq is the sender's program-order send number, identifying the
	// message for seeded fault decisions.
	seq int
}

// mailbox is one rank's incoming-message store: a FIFO queue per source.
// Each receiver owns its mailbox, so a send wakes only its destination.
type mailbox struct {
	mu       sync.Mutex
	cond     *sync.Cond
	bySrc    map[int][]message
	poisoned bool
}

func newMailbox() *mailbox {
	b := &mailbox{bySrc: make(map[int][]message)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// World is one MPI job: a set of ranks, the matching engine, and the
// fabric model.
type World struct {
	cfg  Config
	size int

	boxes []*mailbox

	finalClocks []vclock.Time
	profiles    []RankProfile

	// tracks holds the precomputed per-rank tracer track names; nil
	// when tracing is off.
	tracks []string

	// faults caches the per-(src,dst) fabric fault (nil entries mean a
	// healthy pair); nil when the plan degrades no fabric, so the hot
	// path pays one nil check.
	faults []*simfault.FabricFault

	// rack is non-nil when a fabric is attached and the placement is
	// node-major: collectives then run hierarchically (see hier.go).
	rack *rackInfo
}

// NewWorld validates cfg, applies opts, and builds a world.
func NewWorld(cfg Config, opts ...Option) (*World, error) {
	for _, opt := range opts {
		opt(&cfg)
	}
	if len(cfg.Ranks) == 0 {
		return nil, fmt.Errorf("simmpi: empty world")
	}
	for i, l := range cfg.Ranks {
		if l.ThreadsPerCore < 1 {
			return nil, fmt.Errorf("simmpi: rank %d has %d threads per core", i, l.ThreadsPerCore)
		}
		if cfg.Fabric != nil && (l.Node < 0 || l.Node >= cfg.Fabric.Nodes) {
			return nil, fmt.Errorf("simmpi: rank %d on node %d outside the %d-node fabric",
				i, l.Node, cfg.Fabric.Nodes)
		}
	}
	if cfg.Stack == nil {
		cfg.Stack = pcie.NewStack(pcie.PostUpdate)
	}
	if cfg.EagerMaxBytes == 0 {
		cfg.EagerMaxBytes = 8 << 10
	}
	if cfg.AllgatherSwitchBytes == 0 {
		cfg.AllgatherSwitchBytes = 2 << 10
	}
	if cfg.BcastLongBytes == 0 {
		cfg.BcastLongBytes = 512 << 10
	}
	w := &World{
		cfg:         cfg,
		size:        len(cfg.Ranks),
		boxes:       make([]*mailbox, len(cfg.Ranks)),
		finalClocks: make([]vclock.Time, len(cfg.Ranks)),
		profiles:    make([]RankProfile, len(cfg.Ranks)),
	}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	w.rack = deriveRack(&cfg)
	if cfg.Tracer != nil {
		w.tracks = make([]string, w.size)
		for i := range w.tracks {
			if cfg.TraceLabel != "" {
				w.tracks[i] = fmt.Sprintf("%s/rank%d", cfg.TraceLabel, i)
			} else {
				w.tracks[i] = fmt.Sprintf("rank%d", i)
			}
		}
	}
	if cfg.Faults != nil && len(cfg.Faults.Fabrics) > 0 {
		// Resolve each rank pair's fabric fault once, up front: the
		// receive path then pays a slice load instead of a string match
		// per message.
		w.faults = make([]*simfault.FabricFault, w.size*w.size)
		for a := 0; a < w.size; a++ {
			for b := 0; b < w.size; b++ {
				if a == b {
					continue
				}
				if f, ok := cfg.Faults.Fabric(w.fabricName(a, b)); ok {
					fv := f
					w.faults[a*w.size+b] = &fv
				}
			}
		}
	}
	return w, nil
}

// fabricFault returns the fault entry degrading messages from rank a to
// rank b, or nil for a healthy pair.
func (w *World) fabricFault(a, b int) *simfault.FabricFault {
	if w.faults == nil {
		return nil
	}
	return w.faults[a*w.size+b]
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Run executes body once per rank, each on its own goroutine, and blocks
// until all ranks return. A panic in any rank is recovered and returned
// as an error (other ranks may then block forever in a real deadlock; Run
// unblocks them by poisoning the matching engine).
func (w *World) Run(body func(r *Rank)) (err error) {
	var wg sync.WaitGroup
	errs := make([]error, w.size)
	for id := 0; id < w.size; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := &Rank{id: id, w: w, tracer: w.cfg.Tracer}
			if w.tracks != nil {
				r.track = w.tracks[id]
			}
			r.prof.Rank = id
			defer func() {
				if p := recover(); p != nil {
					errs[id] = fmt.Errorf("simmpi: rank %d: %v", id, p)
					w.poison()
				}
				w.finalClocks[id] = r.clock.Now()
				w.profiles[id] = r.prof
			}()
			body(r)
		}(id)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// poison marks every mailbox dead so blocked receivers unwind instead of
// deadlocking when a rank has failed.
func (w *World) poison() {
	for _, b := range w.boxes {
		b.mu.Lock()
		b.poisoned = true
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// MaxTime returns the latest rank clock after Run: the job's makespan.
func (w *World) MaxTime() vclock.Time {
	var m vclock.Time
	for _, c := range w.finalClocks {
		if c > m {
			m = c
		}
	}
	return m
}

// RankTime returns the final virtual clock of one rank after Run.
func (w *World) RankTime(id int) vclock.Time { return w.finalClocks[id] }

// fabricName names the transport a message from rank a to rank b rides,
// for flight spans: the span category is always "pcie" (the interconnect
// layer); the name identifies the actual fabric.
func (w *World) fabricName(a, b int) string {
	la, lb := w.cfg.Ranks[a], w.cfg.Ranks[b]
	switch {
	case la.Node != lb.Node:
		return "ib:fdr"
	case la.Device == lb.Device:
		if la.Device.IsPhi() {
			return "shm:phi"
		}
		return "shm:host"
	default:
		return "pcie:" + pciePath(la.Device, lb.Device).String()
	}
}

// transferCost returns (sendSideCost, flightTime, rendezvous) for a
// message of n bytes from rank a to rank b.
//
//   - sendSideCost is charged to the sender's clock (injection overhead
//     plus, for eager messages, the copy into the transport buffer);
//   - flightTime is the latency+bandwidth term from injection to delivery;
//   - rendezvous reports whether the receiver must synchronize with the
//     sender before the transfer starts.
func (w *World) transferCost(a, b int, n int) (sendSide, flight vclock.Time, rendezvous bool) {
	la, lb := w.cfg.Ranks[a], w.cfg.Ranks[b]
	rendezvous = n > w.cfg.EagerMaxBytes
	if la.Node != lb.Node {
		// Inter-node: 4x FDR InfiniBand. A Phi endpoint adds its PCIe
		// leg to reach the HCA. With a fabric attached the hypercube
		// hop count sets latency and derated bandwidth; without one the
		// legacy flat single-hop constants apply (which the fabric's
		// one-hop calibration reproduces exactly).
		alpha := 1.8 * vclock.Microsecond
		gbs := 5.8
		if f := w.cfg.Fabric; f != nil {
			hops := f.HopCount(la.Node, lb.Node)
			alpha = f.Alpha(hops)
			gbs = f.HopGBs(hops)
		}
		for _, l := range []Location{la, lb} {
			if l.Device.IsPhi() {
				path := pciePath(machine.Host, l.Device)
				alpha += w.cfg.Stack.Latency(path)
				if pathBW := w.cfg.Stack.Bandwidth(path, n); pathBW > 0 && pathBW < gbs {
					gbs = pathBW
				}
			}
		}
		flight = alpha + vclock.Time(float64(n)/(gbs*1e9))
		if rendezvous {
			flight += 2 * alpha
		}
		return alpha / 2, flight, rendezvous
	}
	if la.Device == lb.Device {
		tpc := la.ThreadsPerCore
		if lb.ThreadsPerCore > tpc {
			tpc = lb.ThreadsPerCore
		}
		alpha, gbs := intraParams(la.Device, tpc)
		bwTerm := vclock.Time(float64(n) / (gbs * 1e9))
		sendSide = alpha / 2
		if !rendezvous {
			sendSide += bwTerm
		}
		flight = alpha + bwTerm
		if rendezvous {
			flight += 2 * alpha // handshake round trip
		}
		return sendSide, flight, rendezvous
	}
	// Cross-device: the DAPL stack prices the whole transfer.
	path := pciePath(la.Device, lb.Device)
	flight = w.cfg.Stack.TransferTime(path, n)
	sendSide = w.cfg.Stack.Latency(path) / 2
	return sendSide, flight, rendezvous
}
