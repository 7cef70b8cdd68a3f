package harness

import (
	"fmt"
	"io"

	"maia/internal/apps/overflow"
	"maia/internal/npb"
	"maia/internal/simmpi"
	"maia/internal/textplot"
)

// Rack-scale extension experiments: the paper measures one node (and a
// two-host InfiniBand pair); Table 1's system is 128 nodes on an FDR
// InfiniBand hypercube. These experiments sweep the full fabric —
// feasible because node-major worlds price on simmpi's replay, whose
// representative-node clock vector makes a 2048-rank collective cost
// microseconds of wall clock instead of a 2048-goroutine run.

// rackExperiments lists the ext-rack-* studies.
func rackExperiments() []Experiment {
	return []Experiment{{
		ID:      "ext-rack-npb",
		Title:   "EXTENSION: NPB CG/MG/FT strong-scaled across the 128-node fabric",
		Paper:   "not in the paper; extrapolates Figure 20's MPI kernels over Table 1's full rack",
		Section: "extension",
		Kind:    KindExtension,
		Run:     runExtRackNPB,
	}, {
		ID:      "ext-rack-overflow",
		Title:   "EXTENSION: OVERFLOW time step at rack scale, host-only vs symmetric",
		Paper:   "not in the paper; scales Figure 23's symmetric-mode question to the full system",
		Section: "extension",
		Kind:    KindExtension,
		Run:     runExtRackOverflow,
	}}
}

// rackNodeSweep returns the node counts to sweep: the full rack by
// default, trimmed in quick mode, capped by -nodes, and kept small
// under a fault plan (faulted worlds refuse the replay and run the
// goroutine engine).
func rackNodeSweep(env Env) []int {
	sweep := []int{2, 8, 32, 128}
	if env.Quick {
		sweep = []int{2, 8}
	}
	if env.Faults.Enabled() {
		sweep = []int{2, 4}
	}
	return capSweep(sweep, env.RackNodes, 2)
}

func runExtRackNPB(w io.Writer, env Env) error {
	const perNode = 16 // every host core runs a rank
	t := textplot.NewTable("bench", "nodes", "ranks", "Gflop/s", "time", "scaling")
	for _, b := range []npb.Benchmark{npb.CG, npb.MG, npb.FT} {
		var base npb.RackResult
		for i, nodes := range rackNodeSweep(env) {
			r, err := npb.RackRun(env.Model, b, npb.ClassC, nodes, perNode, env.Node,
				simmpi.WithTracer(env.Tracer, fmt.Sprintf("rack:%v", b)),
				simmpi.WithFaultPlan(env.Faults))
			if err != nil {
				return err
			}
			scaling := "1.00x"
			if i == 0 {
				base = r
			} else {
				scaling = fmt.Sprintf("%.2fx", r.Gflops/base.Gflops)
			}
			t.Row(b, nodes, r.Ranks, fmt.Sprintf("%.1f", r.Gflops), r.Time, scaling)
		}
	}
	if err := t.Fprint(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w,
		"scaling is Gflop/s vs the smallest sweep point; hop-count latency and bisection derating set the roll-off")
	return err
}

func runExtRackOverflow(w io.Writer, env Env) error {
	t := textplot.NewTable("nodes", "host ranks", "total ranks", "host-only step", "symmetric step", "symmetric gain")
	for _, nodes := range rackNodeSweep(env) {
		hostCfg := overflow.RackHostOnly(nodes)
		hostCfg.Faults = env.Faults
		host, err := overflow.RackStepTime(env.Model, env.Node, hostCfg,
			simmpi.WithTracer(env.Tracer, "rack:overflow-host"))
		if err != nil {
			return err
		}
		symCfg := overflow.RackConfig{
			Nodes:     nodes,
			HostCombo: overflow.Combo{Ranks: 16, Threads: 1},
			PhiCombo:  overflow.Combo{Ranks: 8, Threads: 28},
			Faults:    env.Faults,
		}
		sym, err := overflow.RackStepTime(env.Model, env.Node, symCfg,
			simmpi.WithTracer(env.Tracer, "rack:overflow-sym"))
		if err != nil {
			return err
		}
		t.Row(nodes, nodes*16, nodes*symCfg.PerNode(), host, sym,
			fmt.Sprintf("%.2fx", host.Seconds()/sym.Seconds()))
	}
	if err := t.Fprint(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w,
		"the single-node imbalance story survives at rack scale: the biased balancer overfeeds the Phi ranks on every node")
	return err
}
