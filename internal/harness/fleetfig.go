package harness

import (
	"fmt"
	"io"

	"maia/internal/simfleet"
	"maia/internal/textplot"
	"maia/internal/vclock"
)

// Fleet-scale experiments: the ext-fleet-* family simulates hundreds of
// Maia nodes with seed-drawn simfault conditions, hard-failure renewal
// processes, a job scheduler, and a remediation loop (package simfleet)
// — generalizing ext-fault-straggler's single-node 92% recovery to
// fleet-wide throughput/utilization/queue-latency curves. Like the
// ext-fault family, the default shapes are fixed here (not read from
// env.Faults), so goldens are a pure function of the model; the
// env.Fleet* fields reshape runs for CLI and maiad fleet jobs.

// fleetExperiments lists the ext-fleet-* fleet-scale studies.
func fleetExperiments() []Experiment {
	return []Experiment{{
		ID:      "ext-fleet-mtbf",
		Title:   "EXTENSION: fleet throughput/utilization vs MTBF, 128 Maia nodes",
		Paper:   "not measured; Weinberg/Allalen (LRZ) and Fang et al. motivate fleet-scale endurance — per-card variance and early-life failures dominate aggregate behavior",
		Section: "fleet",
		Kind:    KindExtension,
		Run:     runExtFleetMTBF,
	}, {
		ID:      "ext-fleet-recovery",
		Title:   "EXTENSION: fleet remediation recovery by failure mode and fleet size",
		Paper:   "not measured; generalizes ext-fault-straggler's 92% single-node recovery to cordon/drain/replace/rebalance at fleet scale",
		Section: "fleet",
		Kind:    KindExtension,
		Run:     runExtFleetRecovery,
	}}
}

// fleetPrices returns the memoized per-condition job price table for
// the environment's model.
func fleetPrices(env Env) (*simfleet.PriceTable, error) {
	return simfleet.TableForModel(env.Model, env.Node, 1)
}

// fleetCap applies env.FleetNodes to a default fleet size.
func fleetCap(env Env, nodes int) int {
	if env.FleetNodes > 0 && env.FleetNodes < nodes {
		return env.FleetNodes
	}
	return nodes
}

// fleetConfig seeds a simfleet config with the env's fleet shaping.
func fleetConfig(env Env, prices *simfleet.PriceTable, duration vclock.Time) simfleet.Config {
	if env.FleetDuration > 0 {
		duration = env.FleetDuration
	}
	return simfleet.Config{
		Duration:    duration,
		Seed:        env.FleetSeed,
		Scheduler:   env.FleetScheduler,
		HealthEvery: env.FleetHealth,
		Prices:      prices,
	}
}

// fmtFleetDur formats MTBF/MTTR spans in operator units.
func fmtFleetDur(d vclock.Time) string {
	switch {
	case d <= 0:
		return "-"
	case d >= 3600*vclock.Second:
		return fmt.Sprintf("%gh", d.Seconds()/3600)
	case d >= 60*vclock.Second:
		return fmt.Sprintf("%gmin", d.Seconds()/60)
	}
	return d.String()
}

// fmtPct formats a ratio as a percentage.
func fmtPct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// runExtFleetMTBF sweeps the MTBF profile catalog over a fixed fleet
// with sampled per-node conditions and the remediation loop on: as the
// failure rate climbs, throughput and utilization fall while queue
// latency, requeues, and repairs climb — the endurance narrative as a
// curve. A footer quantifies what remediation buys by replaying the
// harshest profile with the loop off.
func runExtFleetMTBF(w io.Writer, env Env) error {
	prices, err := fleetPrices(env)
	if err != nil {
		return err
	}
	nodes := fleetCap(env, simfleet.DefaultNodes)
	duration := 1200 * vclock.Second
	if env.Quick {
		duration = 400 * vclock.Second
	}
	profiles := simfleet.ProfileNames()
	if env.FleetMTBF != "" {
		profiles = []string{env.FleetMTBF}
	}
	t := textplot.NewTable(fmt.Sprintf("profile (%d nodes)", nodes),
		"mtbf", "mttr", "jobs/hr", "util", "queue p99", "failures", "requeued", "replaced", "rebalanced")
	for _, name := range profiles {
		profile, err := simfleet.ProfileByName(name)
		if err != nil {
			return err
		}
		cfg := fleetConfig(env, prices, duration)
		cfg.Nodes = nodes
		cfg.Profile = name
		cfg.Remediate = true
		st, err := simfleet.Run(cfg)
		if err != nil {
			return err
		}
		t.Row(name, fmtFleetDur(profile.MTBF), fmtFleetDur(profile.MTTR),
			fmt.Sprintf("%.0f", st.Throughput), fmtPct(st.Utilization), st.QueueP99,
			st.HardFailures, st.Requeues, st.Replaced, st.Rebalanced)
	}
	if err := t.Fprint(w); err != nil {
		return err
	}
	harsh := profiles[len(profiles)-1]
	cfg := fleetConfig(env, prices, duration)
	cfg.Nodes = nodes
	cfg.Profile = harsh
	cfg.Remediate = false
	off, err := simfleet.Run(cfg)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w,
		"remediation off under %s: %.0f jobs/hr at %s utilization, %d jobs lost, struck nodes dead to the horizon\n",
		harsh, off.Throughput, fmtPct(off.Utilization), off.Lost)
	return err
}

// runExtFleetRecovery measures what the remediation loop recovers, per
// failure mode: a saturated fleet pinned to each condition runs with
// the loop off, on, and healthy, and the recovered column is the share
// of the lost capacity the loop wins back. The single-node line pins
// the fleet loop to ext-fault-straggler's 92% result, and the sweep
// table scales the sampled-condition fleet from 8 to 512 nodes.
func runExtFleetRecovery(w io.Writer, env Env) error {
	prices, err := fleetPrices(env)
	if err != nil {
		return err
	}
	duration := 900 * vclock.Second
	if env.Quick {
		duration = 300 * vclock.Second
	}
	nodes := fleetCap(env, 64)
	run := func(condition string, remediate bool) (simfleet.Stats, error) {
		cfg := fleetConfig(env, prices, duration)
		cfg.Nodes = nodes
		cfg.Profile = "none"
		cfg.Condition = condition
		cfg.Remediate = remediate
		cfg.Load = 1.5 // saturate so completions measure capacity
		return simfleet.Run(cfg)
	}
	healthy, err := run(simfleet.ConditionHealthy, false)
	if err != nil {
		return err
	}
	t := textplot.NewTable(fmt.Sprintf("condition (%d nodes, saturated)", nodes),
		"degraded", "remediated", "healthy", "recovered", "rebalanced", "replaced", "tolerated")
	for _, cond := range []string{"phi-straggler", "thermal-throttle", "lossy-pcie", "phi0-down"} {
		degraded, err := run(cond, false)
		if err != nil {
			return err
		}
		remediated, err := run(cond, true)
		if err != nil {
			return err
		}
		recovered := "-"
		if gap := healthy.Throughput - degraded.Throughput; gap > 0 {
			recovered = fmt.Sprintf("%.0f%%", 100*(remediated.Throughput-degraded.Throughput)/gap)
		}
		t.Row(cond,
			fmt.Sprintf("%.0f/hr", degraded.Throughput),
			fmt.Sprintf("%.0f/hr", remediated.Throughput),
			fmt.Sprintf("%.0f/hr", healthy.Throughput),
			recovered, remediated.Rebalanced, remediated.Replaced, remediated.Tolerated)
	}
	if err := t.Fprint(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w,
		"phi0-down is tolerated, not replaced: host fallback outruns MG offload on this mix, so the loop keeps the survivors serving"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w,
		"lossy-pcie recovery is negative at this horizon: each replacement parks a working node for ~10min, which only pays back over runs much longer than the MTTR"); err != nil {
		return err
	}

	pinCfg := fleetConfig(env, prices, 600*vclock.Second)
	pinCfg.Nodes = 1
	pinCfg.Profile = "none"
	pinCfg.Condition = "phi-straggler"
	pinCfg.Remediate = true
	pin, err := simfleet.Run(pinCfg)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"single node, phi-straggler: the loop's rebalance recovers %.0f%% of the straggler-induced slowdown (matches ext-fault-straggler)\n",
		pin.RecoveryPct); err != nil {
		return err
	}

	sweep := []int{8, 64, 512}
	if env.Quick {
		sweep = []int{8, 64}
	}
	sweep = capSweep(sweep, env.FleetNodes, env.FleetNodes)
	sweepDuration := 600 * vclock.Second
	if env.Quick {
		sweepDuration = 200 * vclock.Second
	}
	st := textplot.NewTable("fleet (sampled conditions, steady MTBF)",
		"degraded at start", "jobs/hr", "util", "queue p99", "failures", "replaced", "rebalanced")
	for _, n := range sweep {
		cfg := fleetConfig(env, prices, sweepDuration)
		cfg.Nodes = n
		cfg.Profile = "steady"
		cfg.Remediate = true
		s, err := simfleet.Run(cfg)
		if err != nil {
			return err
		}
		st.Row(fmt.Sprintf("%d nodes", n), s.DegradedStart,
			fmt.Sprintf("%.0f", s.Throughput), fmtPct(s.Utilization), s.QueueP99,
			s.HardFailures, s.Replaced, s.Rebalanced)
	}
	return st.Fprint(w)
}
