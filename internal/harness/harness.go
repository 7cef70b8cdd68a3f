// Package harness regenerates every table and figure of the paper's
// evaluation (Section 6). Each Experiment prints the same rows or series
// the paper reports, computed from this repository's simulated Maia
// system; EXPERIMENTS.md records the paper-vs-measured comparison.
package harness

import (
	"io"

	"maia/internal/core"
	"maia/internal/machine"
	"maia/internal/simfault"
	"maia/internal/simtrace"
	"maia/internal/vclock"
)

// Kind groups experiments into presentation tiers; lower kinds print
// first. Within a Kind, Order then ID decide the sequence.
type Kind int

// The presentation tiers, in print order.
const (
	KindTable     Kind = iota // paper tables (table1)
	KindFigure                // numbered paper figures (fig4..fig27)
	KindReport                // whole-paper rollups (report)
	KindExtension             // beyond-the-paper extensions (ext-*)
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindTable:
		return "table"
	case KindFigure:
		return "figure"
	case KindReport:
		return "report"
	case KindExtension:
		return "extension"
	}
	return "unknown"
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the handle used by cmd/maiabench ("table1", "fig4", ...).
	ID string
	// Title is the paper's caption, abbreviated.
	Title string
	// Paper summarizes what the paper measured (the expectation).
	Paper string
	// Section names the paper area the experiment belongs to
	// ("memory", "interconnect", "mpi", "openmp", "io", "npb",
	// "apps", "summary", "extension").
	Section string
	// Kind is the presentation tier; together with Order and ID it
	// fully determines print order — no ID string parsing involved.
	Kind Kind
	// Order ranks experiments within their Kind (the figure number
	// for KindFigure); ties fall back to ID comparison, which is how
	// ext-* extensions order by their full suffix.
	Order int
	// Run computes the experiment and writes its rows.
	Run func(w io.Writer, env Env) error
}

// Env carries the modeled system every experiment runs against.
type Env struct {
	// Model is the calibrated cost model.
	Model core.Model
	// Node is the modeled Maia node.
	Node *machine.Node
	// Quick trims sweep densities so the full suite stays fast (used by
	// tests); the printed shape is unchanged.
	Quick bool
	// Tracer, when non-nil, receives virtual-time spans and counters
	// from every instrumented runtime an experiment touches. Nil (the
	// default) disables tracing at zero cost.
	Tracer *simtrace.Tracer
	// Faults, when non-nil, is the fault plan every experiment threads
	// into the runtimes it constructs, re-pricing the whole suite on the
	// degraded machine. Nil (and the empty plan) reproduces the healthy
	// system bit-for-bit.
	Faults *simfault.Plan
	// RackNodes, when nonzero, caps the node counts the ext-rack
	// experiments sweep (the maiabench -nodes flag). Zero sweeps the
	// full 2..128-node system.
	RackNodes int
	// FleetNodes, when nonzero, caps the fleet sizes the ext-fleet
	// experiments simulate (the maiabench -fleet flag, the JobSpec
	// fleet.nodes field). Zero keeps the default fleet shapes.
	FleetNodes int
	// FleetScheduler, when non-empty, selects the fleet placement
	// policy (see simfleet.Policies; "" = the default policy).
	FleetScheduler string
	// FleetMTBF, when non-empty, pins the ext-fleet experiments to one
	// MTBF profile instead of sweeping the catalog.
	FleetMTBF string
	// FleetDuration, when nonzero, overrides the simulated horizon of
	// every fleet run.
	FleetDuration vclock.Time
	// FleetHealth, when nonzero, overrides the fleet health-check period.
	FleetHealth vclock.Time
	// FleetSeed, when nonzero, re-roots every fleet random decision
	// (condition draws, arrivals, failures); zero keeps the default.
	FleetSeed uint64
}

// DefaultEnv returns the calibrated environment: the default model on
// a fresh node, full density, healthy, untraced. Callers that need
// another environment set its fields.
func DefaultEnv() Env {
	return Env{Model: core.DefaultModel(), Node: machine.NewNode()}
}

// Clone returns an Env that shares no mutable state with env: the Model
// (a value) is copied and the Node is deep-copied, so experiments running
// against clones can execute concurrently. The Tracer pointer is shared —
// it is the one deliberate cross-experiment sink, and it is safe for
// concurrent use.
func (env Env) Clone() Env {
	c := env
	c.Node = env.Node.Clone()
	return c
}

// sizesUpTo returns a 1 B .. max sweep in multiplicative steps of 4
// (of 16 in Quick mode). A max below 1 yields the single-point sweep
// {max} rather than indexing into an empty slice.
func sizesUpTo(env Env, max int) []int {
	step := 4
	if env.Quick {
		step = 16
	}
	var out []int
	for s := 1; s <= max; s *= step {
		out = append(out, s)
	}
	if len(out) == 0 {
		return []int{max}
	}
	if out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

// capSweep keeps the sweep points at or below limit (0 keeps them all);
// when none is that small it returns the single point fallback.
func capSweep(sweep []int, limit, fallback int) []int {
	if limit <= 0 {
		return sweep
	}
	var capped []int
	for _, n := range sweep {
		if n <= limit {
			capped = append(capped, n)
		}
	}
	if len(capped) == 0 {
		return []int{fallback}
	}
	return capped
}
