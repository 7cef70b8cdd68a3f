package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"maia/internal/core"
	"maia/internal/simfault"
	"maia/internal/simfleet"
	"maia/internal/vclock"
)

// JobSpec is the single typed description of "run experiment X under
// environment Y": the wire currency of the maiad control plane and the
// common ground the CLIs build their Envs from. A spec is pure data —
// every field is a value with a canonical JSON encoding — so two
// semantically identical jobs hash to the same content address and a
// cache entry computed for one client answers every other.
//
// The zero value of every optional field means "the default, healthy,
// full-density environment"; the canonical encoding omits such fields,
// so adding a new option never changes the hash of old jobs.
type JobSpec struct {
	// SchemaVersion is the wire-format version (JobSpecSchemaVersion).
	// Zero is accepted on input and normalized to the current version.
	SchemaVersion int `json:"schema_version"`
	// Experiment is the registry ID to run ("table1", "fig4", ...).
	Experiment string `json:"experiment"`
	// Quick trims sweep densities exactly like maiabench -quick.
	Quick bool `json:"quick,omitempty"`
	// Nodes caps the ext-rack node sweeps (0 = full 128-node rack);
	// must be a power of two in 2..128 when nonzero.
	Nodes int `json:"nodes,omitempty"`
	// FaultPlan names a simfault catalog plan ("" = healthy machine).
	FaultPlan string `json:"fault_plan,omitempty"`
	// Seed, when nonzero, replaces the fault plan's catalog seed so one
	// named failure mode can be re-rolled into many distinct machines,
	// or (with a fleet block) re-roots every fleet random decision.
	// Without a fault plan or a fleet it is rejected by Validate: a seed
	// that changes nothing must not mint a distinct cache key.
	Seed uint64 `json:"seed,omitempty"`
	// Model overrides individual cost-model knobs by name (see
	// ModelKeys). Boolean knobs encode as 0 or 1.
	Model map[string]float64 `json:"model,omitempty"`
	// Fleet, when non-nil, shapes the ext-fleet experiments (schema v2;
	// valid only on experiments in the "fleet" section, and never
	// alongside a fault plan — fleet runs draw their degradations from
	// the simfault catalog internally).
	Fleet *FleetSpec `json:"fleet,omitempty"`
}

// FleetSpec is the v2 fleet block: every field zero means "the
// experiment's default shape", and an all-default block is normalized
// away entirely, so v1 specs are untouched by the schema bump.
type FleetSpec struct {
	// Nodes caps the simulated fleet sizes (0 = default shapes; at most
	// simfleet.MaxNodes).
	Nodes int `json:"nodes,omitempty"`
	// DurationS overrides the simulated horizon, in virtual seconds
	// (0 = per-experiment defaults; at most 24h).
	DurationS float64 `json:"duration_s,omitempty"`
	// MTBF pins the MTBF profile ("" = sweep the catalog).
	MTBF string `json:"mtbf,omitempty"`
	// Scheduler selects the placement policy ("" = the default).
	Scheduler string `json:"scheduler,omitempty"`
	// HealthS overrides the health-check period, in virtual seconds
	// (0 = the default; at most one hour).
	HealthS float64 `json:"health_s,omitempty"`
}

// JobSpecSchemaVersion is the current JobSpec wire-format version.
// Version 2 adds the fleet block; a spec without one still
// canonicalizes (and therefore hashes) at version 1, so the bump
// re-keys nothing that existed before.
const JobSpecSchemaVersion = 2

// The model-override keys a JobSpec may set, each addressing one scalar
// knob of core.Model. Together they span the whole Model, so any Model
// value round-trips through a JobSpec.
const (
	// ModelCacheCapture toggles the cache-reuse model (bool: 0 or 1).
	ModelCacheCapture = "cache_capture"
	// ModelThreadLatencyHiding toggles the in-order issue model (bool).
	ModelThreadLatencyHiding = "thread_latency_hiding"
	// ModelOSCorePenalty sets the OS-core time multiplier (> 0).
	ModelOSCorePenalty = "os_core_penalty"
	// ModelStreamBankLimit toggles the GDDR5 open-bank model (bool).
	ModelStreamBankLimit = "stream_bank_limit"
	// ModelStreamBankPenalty sets the past-limit bandwidth multiplier
	// (> 0).
	ModelStreamBankPenalty = "stream_bank_penalty"
)

// ModelKeys lists the valid model-override keys, sorted.
func ModelKeys() []string {
	return []string{
		ModelCacheCapture,
		ModelOSCorePenalty,
		ModelStreamBankLimit,
		ModelStreamBankPenalty,
		ModelThreadLatencyHiding,
	}
}

// The typed validation failures Validate wraps; errors.Is against these
// classifies a rejection without string matching.
var (
	// ErrUnknownExperiment marks an experiment ID absent from the registry.
	ErrUnknownExperiment = errors.New("unknown experiment")
	// ErrBadNodes marks a node count that is not a power of two in 2..128.
	ErrBadNodes = errors.New("invalid node count")
	// ErrUnknownFaultPlan marks a fault-plan name absent from the catalog.
	ErrUnknownFaultPlan = errors.New("unknown fault plan")
	// ErrBadModelOverride marks an unknown key or out-of-domain value.
	ErrBadModelOverride = errors.New("invalid model override")
	// ErrBadSchemaVersion marks a spec from an unsupported wire version.
	ErrBadSchemaVersion = errors.New("unsupported schema version")
	// ErrBadSeed marks a seed on a spec with no fault plan or fleet to drive.
	ErrBadSeed = errors.New("seed without fault plan or fleet")
	// ErrBadFleetNodes marks a fleet size outside 1..simfleet.MaxNodes.
	ErrBadFleetNodes = errors.New("invalid fleet node count")
	// ErrBadFleetDuration marks a fleet horizon outside (0, 24h] seconds.
	ErrBadFleetDuration = errors.New("invalid fleet duration")
	// ErrBadFleetScheduler marks a scheduler policy absent from the catalog.
	ErrBadFleetScheduler = errors.New("unknown fleet scheduler")
	// ErrBadFleetMTBF marks an MTBF profile absent from the catalog.
	ErrBadFleetMTBF = errors.New("unknown fleet MTBF profile")
	// ErrBadFleetHealth marks a health-check period outside (0, 1h] seconds.
	ErrBadFleetHealth = errors.New("invalid fleet health-check period")
	// ErrBadFleetExperiment marks a fleet block on an experiment outside
	// the fleet section, or combined with a fault plan (fleet runs price
	// degradations internally; an env-level plan would mint distinct
	// cache keys for identical output).
	ErrBadFleetExperiment = errors.New("fleet block not applicable")
)

// check validates the fleet block's fields against the simfleet
// catalogs and bounds.
func (f *FleetSpec) check() error {
	if f.Nodes < 0 || f.Nodes > simfleet.MaxNodes {
		return fmt.Errorf("%w: %d (want 1..%d, or 0 for the defaults)",
			ErrBadFleetNodes, f.Nodes, simfleet.MaxNodes)
	}
	if math.IsNaN(f.DurationS) || f.DurationS < 0 || f.DurationS > simfleet.MaxDuration.Seconds() {
		return fmt.Errorf("%w: %v s (want (0, %v], or 0 for the defaults)",
			ErrBadFleetDuration, f.DurationS, simfleet.MaxDuration.Seconds())
	}
	if f.Scheduler != "" {
		if _, err := simfleet.PolicyByName(f.Scheduler); err != nil {
			return fmt.Errorf("%w: %q (have %s)",
				ErrBadFleetScheduler, f.Scheduler, strings.Join(simfleet.PolicyNames(), ", "))
		}
	}
	if f.MTBF != "" {
		if _, err := simfleet.ProfileByName(f.MTBF); err != nil {
			return fmt.Errorf("%w: %q (have %s)",
				ErrBadFleetMTBF, f.MTBF, strings.Join(simfleet.ProfileNames(), ", "))
		}
	}
	if math.IsNaN(f.HealthS) || f.HealthS < 0 || f.HealthS > simfleet.MaxHealthEvery.Seconds() {
		return fmt.Errorf("%w: %v s (want (0, %v], or 0 for the default)",
			ErrBadFleetHealth, f.HealthS, simfleet.MaxHealthEvery.Seconds())
	}
	return nil
}

// Validate checks the spec against the registry and the catalogs and
// returns the first violation, wrapped around one of the typed errors
// above: first the environment (checkEnv, which starts with the schema
// version), then the experiment. A nil error means Env() will succeed
// and the experiment exists.
func (s JobSpec) Validate(reg *Registry) error {
	if _, err := s.checkEnv(); err != nil {
		return err
	}
	if s.Experiment == "" {
		return fmt.Errorf("%w: empty experiment ID", ErrUnknownExperiment)
	}
	if reg == nil {
		return nil
	}
	exp, ok := reg.ByID(s.Experiment)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownExperiment, s.Experiment)
	}
	if s.Fleet != nil && exp.Section != "fleet" {
		return fmt.Errorf("%w: experiment %q is in section %q, not fleet",
			ErrBadFleetExperiment, s.Experiment, exp.Section)
	}
	return nil
}

// checkEnv validates the environment half of the spec — schema version,
// rack nodes, fleet block, fault plan, seed and model overrides — and
// returns the catalog fault plan it names (nil for none). The
// experiment plays no part, so the CLIs' experiment-less specs pass.
func (s JobSpec) checkEnv() (*simfault.Plan, error) {
	if s.SchemaVersion < 0 || s.SchemaVersion > JobSpecSchemaVersion {
		return nil, fmt.Errorf("%w: %d (this build speaks up to %d)",
			ErrBadSchemaVersion, s.SchemaVersion, JobSpecSchemaVersion)
	}
	if s.Nodes != 0 && (s.Nodes < 2 || s.Nodes > 128 || s.Nodes&(s.Nodes-1) != 0) {
		return nil, fmt.Errorf("%w: %d (want a power of two in 2..128, or 0)", ErrBadNodes, s.Nodes)
	}
	if s.Fleet != nil {
		if s.FaultPlan != "" {
			return nil, fmt.Errorf("%w: a fleet block cannot carry fault plan %q",
				ErrBadFleetExperiment, s.FaultPlan)
		}
		if err := s.Fleet.check(); err != nil {
			return nil, err
		}
	}
	var plan *simfault.Plan
	if s.FaultPlan != "" {
		var err error
		if plan, err = simfault.ByName(s.FaultPlan); err != nil {
			return nil, fmt.Errorf("%w: %q (have %s)",
				ErrUnknownFaultPlan, s.FaultPlan, strings.Join(simfault.Names(), ", "))
		}
	} else if s.Seed != 0 && s.Fleet == nil {
		return nil, fmt.Errorf("%w: seed %d would re-roll nothing", ErrBadSeed, s.Seed)
	}
	for key, v := range s.Model {
		if err := checkModelOverride(key, v); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// checkModelOverride validates one model-override assignment.
func checkModelOverride(key string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%w: %s = %v is not finite", ErrBadModelOverride, key, v)
	}
	switch key {
	case ModelCacheCapture, ModelThreadLatencyHiding, ModelStreamBankLimit:
		if v != 0 && v != 1 {
			return fmt.Errorf("%w: %s = %v (boolean knobs take 0 or 1)", ErrBadModelOverride, key, v)
		}
	case ModelOSCorePenalty, ModelStreamBankPenalty:
		if v <= 0 {
			return fmt.Errorf("%w: %s = %v (want > 0)", ErrBadModelOverride, key, v)
		}
	default:
		return fmt.Errorf("%w: unknown key %q (have %s)",
			ErrBadModelOverride, key, strings.Join(ModelKeys(), ", "))
	}
	return nil
}

// Normalize returns the spec in canonical semantic form: the schema
// version filled in (1 without a fleet block, 2 with one — so v1 jobs
// keep their pre-fleet content addresses), a seed equal to the fault
// plan's catalog default (or the fleet's default) cleared, default-
// valued fleet fields dropped (an emptied block vanishes), and model
// overrides equal to the default model dropped. Normalizing never
// changes what Env() builds; it only collapses distinct spellings of
// the same job onto one content address.
func (s JobSpec) Normalize() JobSpec {
	n := s
	if n.Fleet != nil {
		f := *n.Fleet
		if f.Scheduler == simfleet.DefaultScheduler {
			f.Scheduler = ""
		}
		if f.HealthS == simfleet.DefaultHealthEvery.Seconds() {
			f.HealthS = 0
		}
		if n.FaultPlan == "" && n.Seed == simfleet.DefaultSeed {
			n.Seed = 0
		}
		if f == (FleetSpec{}) && n.Seed == 0 {
			n.Fleet = nil
		} else {
			n.Fleet = &f
		}
	}
	n.SchemaVersion = 1
	if n.Fleet != nil {
		n.SchemaVersion = JobSpecSchemaVersion
	}
	if n.FaultPlan == "" {
		if n.Fleet == nil {
			n.Seed = 0
		}
	} else if plan, err := simfault.ByName(n.FaultPlan); err == nil && n.Seed == plan.Seed {
		n.Seed = 0
	}
	if len(n.Model) > 0 {
		def := modelToOverrides(core.DefaultModel())
		var trimmed map[string]float64
		for key, v := range n.Model {
			if dv, ok := def[key]; ok && dv == v {
				continue
			}
			if trimmed == nil {
				trimmed = make(map[string]float64)
			}
			trimmed[key] = v
		}
		n.Model = trimmed
	}
	return n
}

// MarshalCanonical encodes the normalized spec as canonical JSON: keys
// in sorted order, zero-valued optional fields omitted, floats in Go's
// shortest round-trip form. Equal canonical bytes iff the specs build
// the same environment, so these bytes are what Hash digests.
func (s JobSpec) MarshalCanonical() []byte {
	n := s.Normalize()
	var b strings.Builder
	b.WriteByte('{')
	// Fields appear in sorted key order: experiment, fault_plan, fleet,
	// model, nodes, quick, schema_version, seed.
	fmt.Fprintf(&b, "%q:%q", "experiment", n.Experiment)
	if n.FaultPlan != "" {
		fmt.Fprintf(&b, ",%q:%q", "fault_plan", n.FaultPlan)
	}
	if n.Fleet != nil {
		b.WriteString(`,"fleet":{`)
		// Fleet keys in sorted order: duration_s, health_s, mtbf,
		// nodes, scheduler.
		comma := false
		field := func(format string, args ...any) {
			if comma {
				b.WriteByte(',')
			}
			comma = true
			fmt.Fprintf(&b, format, args...)
		}
		if n.Fleet.DurationS != 0 {
			field("%q:%s", "duration_s", canonicalFloat(n.Fleet.DurationS))
		}
		if n.Fleet.HealthS != 0 {
			field("%q:%s", "health_s", canonicalFloat(n.Fleet.HealthS))
		}
		if n.Fleet.MTBF != "" {
			field("%q:%q", "mtbf", n.Fleet.MTBF)
		}
		if n.Fleet.Nodes != 0 {
			field("%q:%d", "nodes", n.Fleet.Nodes)
		}
		if n.Fleet.Scheduler != "" {
			field("%q:%q", "scheduler", n.Fleet.Scheduler)
		}
		b.WriteByte('}')
	}
	if len(n.Model) > 0 {
		b.WriteString(`,"model":{`)
		keys := make([]string, 0, len(n.Model))
		for key := range n.Model {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for i, key := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%q:%s", key, canonicalFloat(n.Model[key]))
		}
		b.WriteByte('}')
	}
	if n.Nodes != 0 {
		fmt.Fprintf(&b, ",%q:%d", "nodes", n.Nodes)
	}
	if n.Quick {
		fmt.Fprintf(&b, ",%q:true", "quick")
	}
	fmt.Fprintf(&b, ",%q:%d", "schema_version", n.SchemaVersion)
	if n.Seed != 0 {
		fmt.Fprintf(&b, ",%q:%d", "seed", n.Seed)
	}
	b.WriteByte('}')
	return []byte(b.String())
}

// canonicalFloat formats a float for the canonical encoding: integral
// values print without exponent or decimal point, everything else in
// Go's shortest form that round-trips to the same float64.
func canonicalFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Hash returns the spec's content address: the hex SHA-256 of its
// canonical encoding. Two specs hash equal iff they describe the same
// job, regardless of field spelling, seed redundancy, or JSON layout.
func (s JobSpec) Hash() string {
	sum := sha256.Sum256(s.MarshalCanonical())
	return hex.EncodeToString(sum[:])
}

// Env builds the harness environment the spec describes, after the
// same environment checks Validate makes. It re-seeds the fault plan
// when Seed is set and applies the model overrides to the calibrated
// default. The experiment ID plays no part here — resolve it against a
// Registry separately.
func (s JobSpec) Env() (Env, error) {
	plan, err := s.checkEnv()
	if err != nil {
		return Env{}, err
	}
	env := DefaultEnv()
	env.Quick = s.Quick
	env.RackNodes = s.Nodes
	if plan != nil && s.Seed != 0 {
		plan.Seed = s.Seed // ByName returns a fresh plan
	}
	env.Faults = plan
	if f := s.Fleet; f != nil {
		env.FleetNodes = f.Nodes
		env.FleetScheduler = f.Scheduler
		env.FleetMTBF = f.MTBF
		env.FleetDuration = vclock.Time(f.DurationS) * vclock.Second
		env.FleetHealth = vclock.Time(f.HealthS) * vclock.Second
		env.FleetSeed = s.Seed
	}
	for key, v := range s.Model {
		applyModelOverride(&env.Model, key, v)
	}
	return env, nil
}

// applyModelOverride sets one validated knob on the model.
func applyModelOverride(m *core.Model, key string, v float64) {
	switch key {
	case ModelCacheCapture:
		m.CacheCapture = v != 0
	case ModelThreadLatencyHiding:
		m.ThreadLatencyHiding = v != 0
	case ModelOSCorePenalty:
		m.OSCorePenalty = v
	case ModelStreamBankLimit:
		m.Stream.BankLimit = v != 0
	case ModelStreamBankPenalty:
		m.Stream.BankPenalty = v
	}
}

// modelToOverrides expresses a Model as the full override map.
func modelToOverrides(m core.Model) map[string]float64 {
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	return map[string]float64{
		ModelCacheCapture:        b2f(m.CacheCapture),
		ModelThreadLatencyHiding: b2f(m.ThreadLatencyHiding),
		ModelOSCorePenalty:       m.OSCorePenalty,
		ModelStreamBankLimit:     b2f(m.Stream.BankLimit),
		ModelStreamBankPenalty:   m.Stream.BankPenalty,
	}
}
