// Package simfleet simulates a fleet of Maia nodes in virtual time:
// each node carries a seed-drawn simfault condition (straggling Phis,
// lossy PCIe, thermal throttling, a dead coprocessor) plus a hard-
// failure renewal process from an MTBF profile; a scheduler places a
// stream of NPB/OVERFLOW/MPI jobs priced by the repository's closed-form
// engines; periodic health checks detect degradation; and a remediation
// loop rebalances, cordons, drains, and replaces — generalizing
// ext-fault-straggler's single-node 92% recovery to fleet-wide
// throughput, utilization, queue-latency, and recovery-vs-MTBF curves.
//
// Determinism is the same contract as everywhere else in this
// repository: the event loop is single-threaded and fires events in
// (time, sequence) order, and every random decision — condition draws,
// job interarrivals and classes, failure gaps, repair jitter, random
// placement — is a pure function of (seed, identity, draw index) via
// simfault.EventSeed. Completions, failures, repairs and health ticks
// wait in a binary heap; the one pending job arrival waits in a slot
// beside it, and the loop takes whichever comes first. Job pricing is
// closed-form and precomputed into a PriceTable, so a fleet run costs
// O(events), not O(simulated ranks), and building the table in
// parallel is byte-identical to sequential.
package simfleet

import (
	"fmt"
	"sort"
	"strings"

	"maia/internal/vclock"
)

// Fleet-wide limits and defaults.
const (
	// MaxNodes bounds fleet size (the JobSpec fleet.nodes domain).
	MaxNodes = 512
	// DefaultNodes is the fleet size the ext-fleet experiments model.
	DefaultNodes = 128
	// DefaultDuration is the simulated horizon when a config leaves it 0.
	DefaultDuration = 1200 * vclock.Second
	// MaxDuration bounds the simulated horizon (the fleet.duration_s domain).
	MaxDuration = 24 * hour
	// DefaultHealthEvery is the health-check period when a config leaves it 0.
	DefaultHealthEvery = 15 * vclock.Second
	// MaxHealthEvery bounds the health-check period (the fleet.health_s domain).
	MaxHealthEvery = hour
	// DefaultSeed roots every random decision when a config leaves it 0.
	DefaultSeed = 1
	// DefaultLoad is the offered utilization target of the arrival process.
	DefaultLoad = 0.7
	// DefaultScheduler is the placement policy when a config leaves it "".
	DefaultScheduler = "least-loaded"
	// DefaultProfile is the MTBF profile when a config leaves it "".
	DefaultProfile = "steady"
	// ConditionSampled asks Run to draw each node's condition with
	// simfault.SampleCondition (the Config.Condition zero value).
	ConditionSampled = ""
	// ConditionHealthy pins every node healthy.
	ConditionHealthy = "healthy"
)

// Policy is one scheduler placement policy.
type Policy struct {
	// Name identifies the policy (the JobSpec fleet.scheduler value).
	Name string
	// Note is a one-line description for listings.
	Note string
}

// Policies returns the scheduler catalog, sorted by name.
func Policies() []Policy {
	all := []Policy{
		{Name: "least-loaded", Note: "idle node with the least accumulated busy time (wear-leveling)"},
		{Name: "random", Note: "seeded uniform pick among idle nodes"},
		{Name: "round-robin", Note: "rotating cursor over idle nodes"},
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// PolicyNames returns the catalog's policy names, sorted.
func PolicyNames() []string {
	policies := Policies()
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.Name
	}
	return names
}

// PolicyByName returns the named policy, or an error listing the valid
// names.
func PolicyByName(name string) (Policy, error) {
	for _, p := range Policies() {
		if p.Name == name {
			return p, nil
		}
	}
	return Policy{}, fmt.Errorf("simfleet: unknown scheduler policy %q (have %s)",
		name, strings.Join(PolicyNames(), ", "))
}

// Config describes one fleet run. The zero value of every field selects
// the documented default, so Config{Prices: t} is a valid 128-node run.
type Config struct {
	// Nodes is the fleet size (1..MaxNodes; 0 = DefaultNodes).
	Nodes int
	// Duration is the simulated horizon (0 = DefaultDuration).
	Duration vclock.Time
	// Seed roots every random decision (0 = DefaultSeed).
	Seed uint64
	// Profile names the MTBF profile ("" = DefaultProfile).
	Profile string
	// Scheduler names the placement policy ("" = DefaultScheduler).
	Scheduler string
	// HealthEvery is the health-check period (0 = DefaultHealthEvery).
	HealthEvery vclock.Time
	// Remediate enables the remediation loop: detection, rebalancing,
	// cordon/drain/replace, repair, and requeue. Off, degraded nodes
	// stay degraded and hard-failed nodes stay down with their job lost.
	Remediate bool
	// Condition pins every node's starting condition: ConditionSampled
	// draws per node, ConditionHealthy pins healthy, and any sampleable
	// simfault catalog plan name pins that condition fleet-wide (the
	// recovery experiments).
	Condition string
	// Load is the offered utilization target of the Poisson arrival
	// process (0 = DefaultLoad).
	Load float64
	// Prices is the per-(condition, class) service-time table; required.
	Prices *PriceTable
}

// withDefaults validates cfg and fills every zero field, returning the
// resolved profile alongside.
func (cfg Config) withDefaults() (Config, MTBFProfile, error) {
	if cfg.Prices == nil {
		return cfg, MTBFProfile{}, fmt.Errorf("simfleet: config needs a price table")
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = DefaultNodes
	}
	if cfg.Nodes < 1 || cfg.Nodes > MaxNodes {
		return cfg, MTBFProfile{}, fmt.Errorf("simfleet: %d nodes outside 1..%d", cfg.Nodes, MaxNodes)
	}
	if cfg.Duration == 0 {
		cfg.Duration = DefaultDuration
	}
	if cfg.Duration <= 0 || cfg.Duration > MaxDuration {
		return cfg, MTBFProfile{}, fmt.Errorf("simfleet: duration %v outside (0, %v]", cfg.Duration, MaxDuration)
	}
	if cfg.Seed == 0 {
		cfg.Seed = DefaultSeed
	}
	if cfg.Profile == "" {
		cfg.Profile = DefaultProfile
	}
	profile, err := ProfileByName(cfg.Profile)
	if err != nil {
		return cfg, MTBFProfile{}, err
	}
	if cfg.Scheduler == "" {
		cfg.Scheduler = DefaultScheduler
	}
	if _, err := PolicyByName(cfg.Scheduler); err != nil {
		return cfg, MTBFProfile{}, err
	}
	if cfg.HealthEvery == 0 {
		cfg.HealthEvery = DefaultHealthEvery
	}
	if cfg.HealthEvery <= 0 || cfg.HealthEvery > MaxHealthEvery {
		return cfg, MTBFProfile{}, fmt.Errorf("simfleet: health period %v outside (0, %v]", cfg.HealthEvery, MaxHealthEvery)
	}
	if cfg.Condition != ConditionSampled && cfg.Condition != ConditionHealthy {
		if _, ok := cfg.Prices.Degraded[cfg.Condition]; !ok {
			return cfg, MTBFProfile{}, fmt.Errorf("simfleet: unknown condition %q (have healthy, %s)",
				cfg.Condition, strings.Join(sortedConditions(cfg.Prices), ", "))
		}
	}
	if cfg.Load == 0 {
		cfg.Load = DefaultLoad
	}
	if cfg.Load <= 0 || cfg.Load > 4 {
		return cfg, MTBFProfile{}, fmt.Errorf("simfleet: load %v outside (0, 4]", cfg.Load)
	}
	return cfg, profile, nil
}

// sortedConditions lists a price table's degraded condition names.
func sortedConditions(t *PriceTable) []string {
	names := make([]string, 0, len(t.Degraded))
	for name := range t.Degraded {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
