// Package simomp is a virtual-time OpenMP-style runtime: fork/join teams,
// work-sharing loops with the three OpenMP schedules, and the
// synchronization constructs whose overheads the paper measures with
// EPCC-style micro-benchmarks (Figures 15 and 16).
//
// The runtime plays two roles:
//
//  1. It is the execution vehicle for the OpenMP versions of the NAS
//     Parallel Benchmarks and the two CFD mini-apps: loop bodies really
//     run (on goroutines), so results are genuine and testable.
//  2. It charges deterministic virtual time: construct overheads come from
//     a per-device calibration table, and loop time is computed by
//     simulating the chosen schedule (chunk by chunk for DYNAMIC and
//     GUIDED) over the per-iteration cost model supplied by the caller.
//
// Virtual time never depends on the Go scheduler, so the reproduced
// figures are bit-for-bit repeatable.
package simomp

import (
	"fmt"
	"math"

	"maia/internal/machine"
	"maia/internal/simfault"
	"maia/internal/simtrace"
	"maia/internal/vclock"
)

// Construct enumerates the OpenMP constructs of the paper's Figure 15
// synchronization benchmark.
type Construct int

const (
	// Parallel is a bare `#pragma omp parallel` fork/join.
	Parallel Construct = iota
	// For is a work-shared loop inside an existing region (`omp for`).
	For
	// ParallelFor is the combined `omp parallel for`.
	ParallelFor
	// Barrier is an explicit `omp barrier`.
	Barrier
	// Single is `omp single` (one thread runs, others wait).
	Single
	// Critical is `omp critical` mutual exclusion.
	Critical
	// Lock is an omp_set_lock/omp_unset_lock pair.
	Lock
	// Ordered is `omp ordered` inside a loop.
	Ordered
	// Atomic is `omp atomic`.
	Atomic
	// Reduction is a loop with a `reduction(...)` clause.
	Reduction
	numConstructs
)

// String implements fmt.Stringer using the paper's labels.
func (c Construct) String() string {
	switch c {
	case Parallel:
		return "PARALLEL"
	case For:
		return "FOR"
	case ParallelFor:
		return "PARALLEL FOR"
	case Barrier:
		return "BARRIER"
	case Single:
		return "SINGLE"
	case Critical:
		return "CRITICAL"
	case Lock:
		return "LOCK/UNLOCK"
	case Ordered:
		return "ORDERED"
	case Atomic:
		return "ATOMIC"
	case Reduction:
		return "REDUCTION"
	default:
		return fmt.Sprintf("Construct(%d)", int(c))
	}
}

// Constructs lists every construct in Figure 15 display order.
func Constructs() []Construct {
	return []Construct{Parallel, For, ParallelFor, Barrier, Single,
		Critical, Lock, Ordered, Atomic, Reduction}
}

// Schedule is an OpenMP loop schedule (Figure 16).
type Schedule int

const (
	// Static divides iterations into chunks assigned round-robin at
	// compile time: no runtime arbitration, lowest overhead.
	Static Schedule = iota
	// Dynamic hands each chunk to the first idle thread via a shared
	// counter: best load balance, highest overhead.
	Dynamic
	// Guided is dynamic with geometrically shrinking chunks: fewer
	// dispatches than Dynamic for the same balance, overhead in between.
	Guided
)

// String implements fmt.Stringer.
func (s Schedule) String() string {
	switch s {
	case Static:
		return "STATIC"
	case Dynamic:
		return "DYNAMIC"
	case Guided:
		return "GUIDED"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// Schedules lists the three schedules in display order.
func Schedules() []Schedule { return []Schedule{Static, Dynamic, Guided} }

// overheadTable holds calibrated construct overheads (EPCC definition:
// Tp − Ts/p) at a reference thread count, plus the per-dispatch cost of
// the dynamic scheduler. All values in microseconds.
type overheadTable struct {
	refThreads int
	sync       [numConstructs]float64 // µs at refThreads
	dispatch   float64                // µs per dynamic chunk dispatch
	osCoreMult float64                // penalty when the OS core is used
}

// hostTable is calibrated so that the host side of Figures 15–16 matches
// EPCC-like measurements on a 16-core Sandy Bridge node.
var hostTable = overheadTable{
	refThreads: 16,
	sync: [numConstructs]float64{
		Parallel:    1.9,
		For:         0.9,
		ParallelFor: 2.1,
		Barrier:     0.8,
		Single:      1.0,
		Critical:    0.45,
		Lock:        0.4,
		Ordered:     0.55,
		Atomic:      0.12,
		Reduction:   2.6,
	},
	dispatch:   0.09,
	osCoreMult: 1,
}

// phiTable is calibrated to the Phi side of Figures 15–16: roughly an
// order of magnitude above the host for every construct, with REDUCTION
// dearest, then PARALLEL FOR and PARALLEL, and ATOMIC cheapest.
var phiTable = overheadTable{
	refThreads: 236,
	sync: [numConstructs]float64{
		Parallel:    21.0,
		For:         9.5,
		ParallelFor: 23.5,
		Barrier:     8.0,
		Single:      10.5,
		Critical:    4.8,
		Lock:        4.2,
		Ordered:     5.6,
		Atomic:      1.1,
		Reduction:   29.0,
	},
	dispatch:   1.0,
	osCoreMult: 2.5,
}

// Runtime is the per-partition OpenMP runtime model.
type Runtime struct {
	part  machine.Partition
	table overheadTable

	// slow is the fault plan's steady compute slowdown for this
	// partition's device (1 on the healthy machine).
	slow float64

	// Tracing state: tracer is nil when tracing is off; clock is the
	// runtime's trace timeline, advanced by each traced construct so
	// spans lay out sequentially on the track.
	tracer *simtrace.Tracer
	track  string
	clock  vclock.Clock
}

// Option configures a Runtime at construction.
type Option func(*Runtime)

// WithTracer returns an option attaching a tracer to the runtime:
// subsequent team constructs emit omp-category spans on the given
// track, laid out back-to-back on the runtime's own trace timeline. A
// nil tracer leaves tracing off.
func WithTracer(t *simtrace.Tracer, track string) Option {
	return func(r *Runtime) { r.setTracer(t, track) }
}

// WithFaultPlan returns an option pricing the runtime's constructs on
// the degraded machine the plan describes. OpenMP regions are priced in
// relative time (no absolute timeline), so the steady per-device
// slowdown — straggler entries — is the fault model that applies here;
// time-anchored throttle windows and failures are handled by the
// runtimes that keep an absolute clock (simmpi, offload). A nil or
// empty plan changes nothing.
func WithFaultPlan(p *simfault.Plan) Option {
	return func(r *Runtime) { r.slow = p.Slowdown(r.part.Device) }
}

// New returns the runtime for a partition.
func New(part machine.Partition, opts ...Option) *Runtime {
	t := hostTable
	if part.Device.IsPhi() {
		t = phiTable
	}
	r := &Runtime{part: part, table: t, slow: 1}
	for _, o := range opts {
		o(r)
	}
	return r
}

// setTracer attaches a tracer to the runtime (see WithTracer). A nil
// tracer turns tracing off.
func (r *Runtime) setTracer(t *simtrace.Tracer, track string) {
	r.tracer = t
	r.track = track
}

// scale applies the fault plan's steady slowdown to a virtual duration;
// the healthy runtime returns d unchanged.
func (r *Runtime) scale(d vclock.Time) vclock.Time {
	if r.slow > 1 {
		return vclock.Time(float64(d) * r.slow)
	}
	return d
}

// trace lays the construct just charged onto the runtime's trace
// timeline; a no-op when tracing is off. chunks, when positive, bumps
// the omp/chunks dispatch counter.
func (r *Runtime) trace(name string, elapsed vclock.Time, chunks int) {
	if r.tracer == nil {
		return
	}
	t0 := r.clock.Now()
	if elapsed > 0 {
		r.clock.Advance(elapsed)
	}
	r.tracer.Span(r.track, simtrace.CatOMP, name, t0, r.clock.Now(), 0)
	if chunks > 0 {
		r.tracer.Count(simtrace.CatOMP, "chunks", int64(chunks))
	}
}

// threadScale maps an overhead calibrated at refThreads to the runtime's
// actual thread count. Fork/join and barrier-family constructs grow
// logarithmically (tree barriers); mutual-exclusion constructs grow
// linearly with contenders; reductions carry a log-tree combine plus a
// linear touch of per-thread partials.
func (r *Runtime) threadScale(c Construct) float64 {
	p := float64(r.part.Threads())
	ref := float64(r.table.refThreads)
	logRatio := math.Log2(1+p) / math.Log2(1+ref)
	linRatio := p / ref
	switch c {
	case Critical, Lock, Atomic, Ordered:
		return linRatio
	case Reduction:
		return 0.5*logRatio + 0.5*linRatio
	default:
		return logRatio
	}
}

// SyncOverhead returns the Figure 15 overhead of a construct on this
// runtime's partition (EPCC definition).
func (r *Runtime) SyncOverhead(c Construct) vclock.Time {
	o := r.table.sync[c] * r.threadScale(c)
	if r.part.UsesOSCore {
		// The 60th Phi core runs MPSS services; every fork/join and
		// barrier now waits for a core that keeps getting preempted.
		o *= r.table.osCoreMult
	}
	return r.scale(vclock.Time(o) * vclock.Microsecond)
}

// dispatchCost returns the virtual time of one dynamic-scheduler chunk
// dispatch (the shared-counter fetch-and-add, serialized under
// contention).
func (r *Runtime) dispatchCost() vclock.Time {
	o := r.table.dispatch
	if r.part.UsesOSCore {
		o *= r.table.osCoreMult
	}
	return r.scale(vclock.Time(o) * vclock.Microsecond)
}
