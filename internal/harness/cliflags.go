// Shared CLI flag wiring. The commands that run experiments —
// maiabench and npbrun — parse the same surface through JobFlags, and
// the parsed flags turn into environments only by way of JobSpec, the
// type maiad decodes from every HTTP job, so a CLI invocation and a
// maiad job can never drift apart in meaning. New run options land
// here (and in JobSpec) once and appear everywhere.
package harness

import (
	"flag"
	"fmt"
	"io"
	"os"

	"maia/internal/simtrace"
)

// JobFlags holds the shared experiment-surface flags. Register the
// groups a command supports, then build the environment with Env — the
// values route through a JobSpec, so CLI validation and wire validation
// are the same code.
type JobFlags struct {
	// Quick trims sweep densities (-quick).
	Quick bool
	// Faults names a simfault catalog plan (-faults).
	Faults string
	// Seed re-seeds the fault plan (-seed, 0 = the catalog seed).
	Seed uint64
	// Nodes caps the ext-rack node sweeps (-nodes).
	Nodes int
	// Fleet caps the ext-fleet simulated fleet sizes (-fleet).
	Fleet int
	// Scheduler selects the fleet placement policy (-scheduler).
	Scheduler string
	// Trace is the Chrome trace_event output path (-trace).
	Trace string
	// TraceSummary requests the per-category text rollup (-trace-summary).
	TraceSummary bool

	prog string
}

// AddJobFlags registers the full shared surface on fs and returns the
// bound flags: -quick, -faults, -seed, -nodes, -fleet, -scheduler,
// -trace, -trace-summary.
func AddJobFlags(fs *flag.FlagSet) *JobFlags {
	f := &JobFlags{}
	f.RegisterRun(fs)
	f.RegisterTrace(fs)
	return f
}

// RegisterRun registers the environment-shaping flags (-quick, -faults,
// -seed, -nodes, -fleet, -scheduler).
func (f *JobFlags) RegisterRun(fs *flag.FlagSet) {
	f.prog = fs.Name()
	fs.BoolVar(&f.Quick, "quick", false, "trim sweep densities for a fast pass")
	f.RegisterFaults(fs)
	fs.IntVar(&f.Nodes, "nodes", 0, "cap the ext-rack node sweeps at this power-of-two node count (0 = full 128-node system); incompatible with -verify/-update")
	fs.IntVar(&f.Fleet, "fleet", 0, "cap the ext-fleet simulated fleet sizes at this node count (0 = default shapes); incompatible with -verify/-update")
	fs.StringVar(&f.Scheduler, "scheduler", "", "fleet placement policy for the ext-fleet experiments (see -list for the catalog); incompatible with -verify/-update")
}

// RegisterTrace registers the tracing flags (-trace, -trace-summary).
func (f *JobFlags) RegisterTrace(fs *flag.FlagSet) {
	f.prog = fs.Name()
	fs.StringVar(&f.Trace, "trace", "", "write a Chrome trace_event JSON of all virtual-time spans to this file (load at ui.perfetto.dev)")
	fs.BoolVar(&f.TraceSummary, "trace-summary", false, "print the per-category trace time/bytes summary after the run")
}

// RegisterFaults registers just the fault flags (-faults, -seed) for
// commands that take a degraded machine but no sweep shaping.
func (f *JobFlags) RegisterFaults(fs *flag.FlagSet) {
	f.prog = fs.Name()
	fs.StringVar(&f.Faults, "faults", "", "run under a named fault plan (maiabench -list prints the catalog)")
	fs.Uint64Var(&f.Seed, "seed", 0, "re-seed the -faults plan, or the -fleet draws where that flag exists (0 = the defaults)")
}

// Spec returns the JobSpec the flags describe for one experiment ID.
// The -fleet/-scheduler pair becomes a v2 fleet block (so a fault plan
// alongside it is rejected exactly like on the wire).
func (f *JobFlags) Spec(experiment string) JobSpec {
	spec := JobSpec{
		SchemaVersion: JobSpecSchemaVersion,
		Experiment:    experiment,
		Quick:         f.Quick,
		Nodes:         f.Nodes,
		FaultPlan:     f.Faults,
		Seed:          f.Seed,
	}
	if f.Fleet != 0 || f.Scheduler != "" {
		spec.Fleet = &FleetSpec{Nodes: f.Fleet, Scheduler: f.Scheduler}
	}
	return spec
}

// NewTracer returns a fresh tracer when a tracing flag asked for one,
// nil otherwise (tracing off at zero cost).
func (f *JobFlags) NewTracer() *simtrace.Tracer {
	if f.Trace == "" && !f.TraceSummary {
		return nil
	}
	return simtrace.New()
}

// Env validates the flag values through a JobSpec and builds the
// environment plus the requested tracer (nil when tracing is off).
func (f *JobFlags) Env() (Env, *simtrace.Tracer, error) {
	env, err := f.Spec("").Env()
	if err != nil {
		return Env{}, nil, err
	}
	env.Tracer = f.NewTracer()
	return env, env.Tracer, nil
}

// WriteTrace exports what the tracer collected: Chrome JSON to the
// -trace path (when set) and/or the text summary to w. Exports run even
// after a failed run — a partial trace is exactly what explains a
// failure. A nil tracer is a no-op.
func (f *JobFlags) WriteTrace(tracer *simtrace.Tracer, w io.Writer) error {
	if tracer == nil {
		return nil
	}
	if f.Trace != "" {
		out, err := os.Create(f.Trace)
		if err != nil {
			return err
		}
		if err := tracer.WriteChrome(out); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: wrote %d spans to %s\n", f.prog, tracer.SpanCount(), f.Trace)
	}
	if f.TraceSummary {
		return tracer.Summary().WriteText(w)
	}
	return nil
}
