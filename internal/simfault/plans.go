package simfault

import (
	"fmt"
	"strings"

	"maia/internal/machine"
	"maia/internal/vclock"
)

// The named fault-plan catalog: the degraded-machine scenarios the
// ext-fault-* experiments study, selectable on the CLI with
// `maiabench -faults <name>`. Each construction is a pure literal, so
// two lookups of the same name always yield identical plans.

// PhiStraggler returns the straggling-coprocessor plan: both Phi cards
// deliver compute 1.8x slower than the calibrated model (thermal
// headroom loss plus zone-shape sensitivity), while the host and every
// fabric stay healthy. This is the Figure 23 robustness scenario: the
// static zone balance overloads the Phi ranks, and only a load-balance
// update that adapts to measured speeds recovers the makespan.
func PhiStraggler() *Plan {
	return &Plan{
		Name: "phi-straggler",
		Note: "both Phi cards compute 1.8x slower; fabrics healthy",
		Seed: 1,
		Stragglers: []Straggler{
			{Device: machine.Phi0, Slowdown: 1.8},
			{Device: machine.Phi1, Slowdown: 1.8},
		},
	}
}

// LossyPCIe returns the degraded-fabric plan: every PCIe/DAPL path
// loses bandwidth (1.6x longer flights), gains 5 us of latency, and
// drops 3% of deliveries, forcing timeout-and-retransmit with
// exponential backoff. Shared-memory and InfiniBand fabrics stay
// healthy — the erratic-DAPL failure mode of the early MPSS stacks.
func LossyPCIe() *Plan {
	return &Plan{
		Name: "lossy-pcie",
		Note: "PCIe/DAPL paths: 1.6x slower flights, +5us, 3% drops with retry/backoff",
		Seed: 2,
		Fabrics: []FabricFault{{
			Fabric:   "pcie:",
			Derate:   1.6,
			Delay:    5 * vclock.Microsecond,
			DropProb: 0.03,
		}},
	}
}

// ThermalThrottle returns the time-varying derating plan: each Phi
// alternates between a 2 ms hot window at 2.2x slowdown and 3 ms at
// full speed (a 5 ms thermal cycle), starting 1 ms into the run. The
// host is unaffected.
func ThermalThrottle() *Plan {
	return &Plan{
		Name: "thermal-throttle",
		Note: "Phi cards: 2ms hot windows at 2.2x slowdown every 5ms",
		Seed: 3,
		Throttles: []Throttle{
			{Device: machine.Phi0, Start: 1 * vclock.Millisecond, Period: 5 * vclock.Millisecond, Hot: 2 * vclock.Millisecond, Derate: 2.2},
			{Device: machine.Phi1, Start: 1 * vclock.Millisecond, Period: 5 * vclock.Millisecond, Hot: 2 * vclock.Millisecond, Derate: 2.2},
		},
	}
}

// Phi0Down returns the whole-coprocessor-failure plan: Phi0 is dead
// from the start of the run. Offload programs degrade gracefully to
// the host cost model; the other devices and fabrics stay healthy.
func Phi0Down() *Plan {
	return &Plan{
		Name:     "phi0-down",
		Note:     "Phi0 failed from t=0; offload falls back to the host",
		Seed:     4,
		Failures: []Failure{{Device: machine.Phi0, At: 0}},
	}
}

// Degraded returns the everything-at-once plan: straggling, throttled
// coprocessors over a lossy PCIe fabric — the worst realistic day.
func Degraded() *Plan {
	return &Plan{
		Name: "degraded",
		Note: "phi-straggler + thermal-throttle + lossy-pcie combined",
		Seed: 5,
		Stragglers: []Straggler{
			{Device: machine.Phi0, Slowdown: 1.8},
			{Device: machine.Phi1, Slowdown: 1.8},
		},
		Throttles: []Throttle{
			{Device: machine.Phi0, Start: 1 * vclock.Millisecond, Period: 5 * vclock.Millisecond, Hot: 2 * vclock.Millisecond, Derate: 2.2},
			{Device: machine.Phi1, Start: 1 * vclock.Millisecond, Period: 5 * vclock.Millisecond, Hot: 2 * vclock.Millisecond, Derate: 2.2},
		},
		Fabrics: []FabricFault{{
			Fabric:   "pcie:",
			Derate:   1.6,
			Delay:    5 * vclock.Microsecond,
			DropProb: 0.03,
		}},
	}
}

// catalog maps each plan name to its constructor, sorted by name, so
// a lookup builds only the plan it returns.
var catalog = []struct {
	name  string
	build func() *Plan
}{
	{"degraded", Degraded},
	{"lossy-pcie", LossyPCIe},
	{"phi-straggler", PhiStraggler},
	{"phi0-down", Phi0Down},
	{"thermal-throttle", ThermalThrottle},
}

// Plans returns the named catalog, sorted by name.
func Plans() []*Plan {
	all := make([]*Plan, len(catalog))
	for i, c := range catalog {
		all[i] = c.build()
	}
	return all
}

// Names returns the catalog's plan names, sorted.
func Names() []string {
	names := make([]string, len(catalog))
	for i, c := range catalog {
		names[i] = c.name
	}
	return names
}

// ByName returns a fresh copy of the named plan (callers may re-seed
// it), or an error listing the valid names.
func ByName(name string) (*Plan, error) {
	for _, c := range catalog {
		if c.name == name {
			return c.build(), nil
		}
	}
	return nil, fmt.Errorf("simfault: unknown fault plan %q (have %s)",
		name, strings.Join(Names(), ", "))
}
