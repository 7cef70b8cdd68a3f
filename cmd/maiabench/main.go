// Command maiabench reproduces the paper's evaluation: it runs any (or
// all) of the experiments behind Table 1 and Figures 4-27 on the
// simulated Maia system and prints the same rows the paper reports,
// plus the "report" card (every headline claim, graded) and the ext-*
// extension experiments.
//
// Experiments run on a worker pool (-parallel, default one worker per
// CPU); because every experiment executes against its own cloned
// environment and the simulation is virtual-time deterministic, the
// assembled output is byte-identical to a sequential run.
//
// With -trace (or -trace-summary) the simulated runtimes also record
// every virtual-time event — MPI operations and their transport
// flights, OpenMP constructs, offload phases, DMA, I/O — into a
// simtrace tracer: -trace writes Chrome trace_event JSON loadable at
// ui.perfetto.dev, -trace-summary prints the per-category rollup.
//
// With -faults the whole run is re-priced on a deterministically
// degraded machine: a named simfault plan (stragglers, thermal
// throttling, lossy PCIe, a dead coprocessor) threads into every
// runtime the experiments construct, and -seed re-rolls the plan's
// random decisions into a different degraded machine. Golden
// verification is healthy-machine only, so -faults rejects
// -verify/-update.
//
// With -nodes the ext-rack experiments cap their node sweeps at the
// given power-of-two count instead of the full 128-node system. Golden
// snapshots record the full sweep, so -nodes rejects -verify/-update.
//
// With -fleet the ext-fleet experiments cap their simulated fleet sizes
// at the given node count (1..512), and -scheduler selects the fleet's
// placement policy; -seed re-rolls the fleet's sampled conditions,
// arrivals, and failures. Like the other env-shaping flags, both reject
// -verify/-update.
//
// Usage:
//
//	maiabench -list
//	maiabench table1 fig4 fig19 report
//	maiabench -quick all
//	maiabench -parallel 8 all
//	maiabench -verify all        # compare against golden snapshots
//	maiabench -update all        # regenerate golden snapshots
//	maiabench -trace out.json fig13
//	maiabench -trace-summary fig26
//	maiabench -faults degraded -trace trace-fault.json fig10
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"runtime"

	"maia/internal/harness"
	"maia/internal/simfault"
	"maia/internal/simfleet"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "maiabench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("maiabench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list available experiments and exit")
	parallel := fs.Int("parallel", runtime.NumCPU(), "experiment worker count (1 = sequential)")
	verify := fs.Bool("verify", false, "compare output against golden snapshots instead of printing")
	update := fs.Bool("update", false, "regenerate golden snapshot files and exit")
	goldenDir := fs.String("golden", harness.DefaultGoldenDir,
		"golden snapshot directory (-verify falls back to the build-time copies when it does not exist)")
	stats := fs.Bool("stats", false, "print per-experiment wall time and output size to stderr")
	jf := harness.AddJobFlags(fs)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(),
			"usage: maiabench [-quick] [-parallel N] [-faults PLAN [-seed S]] [-nodes N] [-fleet N [-scheduler P]] [-verify|-update] [-trace FILE] [-trace-summary] [-stats] [-list] <experiment>... | all")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if jf.Nodes != 0 && (*verify || *update) {
		return fmt.Errorf("golden snapshots sweep the full rack: drop -nodes with -verify/-update")
	}
	if (jf.Faults != "" || jf.Seed != 0) && (*verify || *update) {
		return fmt.Errorf("golden snapshots are healthy-machine: drop -faults/-seed with -verify/-update")
	}
	if (jf.Fleet != 0 || jf.Scheduler != "") && (*verify || *update) {
		return fmt.Errorf("golden snapshots use the default fleet shapes: drop -fleet/-scheduler with -verify/-update")
	}

	reg := harness.Paper()

	env, tracer, err := jf.Env()
	if err != nil {
		return err
	}

	if *list {
		for _, e := range reg.All() {
			fmt.Printf("%-22s %-12s %-9s %s\n", e.ID, e.Section, e.Kind, e.Title)
		}
		fmt.Println()
		fmt.Println("fault plans (-faults):")
		for _, p := range simfault.Plans() {
			fmt.Printf("%-22s %s\n", p.Name, p.Note)
		}
		fmt.Println()
		fmt.Println("fleet schedulers (-scheduler):")
		for _, p := range simfleet.Policies() {
			fmt.Printf("%-22s %s\n", p.Name, p.Note)
		}
		fmt.Println()
		fmt.Println("fleet MTBF profiles (jobspec fleet.mtbf):")
		for _, p := range simfleet.Profiles() {
			fmt.Printf("%-22s %s\n", p.Name, p.Note)
		}
		return nil
	}
	exps, err := selectExperiments(reg, fs.Args())
	if err != nil {
		if len(fs.Args()) == 0 {
			fs.Usage()
		}
		return err
	}

	switch {
	case *update:
		if jf.Quick {
			return fmt.Errorf("golden snapshots are full-mode: drop -quick with -update")
		}
		return harness.UpdateGolden(*goldenDir, env, exps)
	case *verify:
		if jf.Quick {
			return fmt.Errorf("golden snapshots are full-mode: drop -quick with -verify")
		}
		if err := harness.VerifyGolden(env, exps, goldenSource(*goldenDir)); err != nil {
			return err
		}
		fmt.Printf("verified %d experiment(s) against golden snapshots\n", len(exps))
		return nil
	}

	results, err := harness.RunExperiments(os.Stdout, env, exps, *parallel)
	if *stats {
		for _, r := range results {
			status := "ok"
			if r.Err != nil {
				status = "FAILED"
			}
			fmt.Fprintf(os.Stderr, "%-22s %10v %7d B  %s\n", r.ID, r.Wall.Round(1e6), r.Bytes, status)
		}
	}
	if terr := jf.WriteTrace(tracer, os.Stdout); terr != nil && err == nil {
		err = terr
	}
	return err
}

// selectExperiments resolves CLI arguments to experiments: the single
// word "all" means every experiment in presentation order.
func selectExperiments(reg *harness.Registry, ids []string) ([]harness.Experiment, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("no experiments given")
	}
	if len(ids) == 1 && ids[0] == "all" {
		return reg.All(), nil
	}
	exps := make([]harness.Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := reg.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (try -list)", id)
		}
		exps = append(exps, e)
	}
	return exps, nil
}

// goldenSource prefers the on-disk snapshot directory (the committed
// files, freshest when run from the repository root) and falls back to
// the copies embedded at build time so -verify works from anywhere.
func goldenSource(dir string) fs.FS {
	if info, err := os.Stat(dir); err == nil && info.IsDir() {
		return os.DirFS(dir)
	}
	return harness.EmbeddedGolden()
}
