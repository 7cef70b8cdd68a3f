package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"maia/internal/core"
	"maia/internal/simfault"
	"maia/internal/simfleet"
)

// The canonical encoding is pinned byte-for-byte: any drift here would
// silently re-key every cached result in a maiad deployment.
func TestJobSpecCanonicalBytes(t *testing.T) {
	cases := []struct {
		spec JobSpec
		want string
	}{
		{
			JobSpec{Experiment: "fig5"},
			`{"experiment":"fig5","schema_version":1}`,
		},
		{
			JobSpec{Experiment: "fig5", Quick: true},
			`{"experiment":"fig5","quick":true,"schema_version":1}`,
		},
		{
			JobSpec{Experiment: "ext-rack-npb", Nodes: 4, FaultPlan: "degraded", Seed: 99,
				Model: map[string]float64{ModelOSCorePenalty: 1.5, ModelCacheCapture: 0}},
			`{"experiment":"ext-rack-npb","fault_plan":"degraded",` +
				`"model":{"cache_capture":0,"os_core_penalty":1.5},` +
				`"nodes":4,"schema_version":1,"seed":99}`,
		},
		{
			// Redundant spellings normalize away: the catalog seed and
			// default-valued model overrides do not change the job.
			JobSpec{Experiment: "fig5", FaultPlan: "degraded", Seed: 5,
				Model: map[string]float64{ModelCacheCapture: 1}},
			`{"experiment":"fig5","fault_plan":"degraded","schema_version":1}`,
		},
		{
			// A fleet block promotes the spec to schema version 2, with
			// the sub-keys in sorted order.
			JobSpec{Experiment: "ext-fleet-recovery", Quick: true, Seed: 7,
				Fleet: &FleetSpec{Nodes: 64, Scheduler: "round-robin",
					MTBF: "steady", DurationS: 600.5, HealthS: 30}},
			`{"experiment":"ext-fleet-recovery",` +
				`"fleet":{"duration_s":600.5,"health_s":30,"mtbf":"steady","nodes":64,"scheduler":"round-robin"},` +
				`"quick":true,"schema_version":2,"seed":7}`,
		},
		{
			// An all-default fleet block (the default scheduler, the
			// default health period, the default seed) collapses away
			// entirely, landing back on the v1 encoding.
			JobSpec{Experiment: "ext-fleet-recovery", Seed: 1,
				Fleet: &FleetSpec{Scheduler: "least-loaded", HealthS: 15}},
			`{"experiment":"ext-fleet-recovery","schema_version":1}`,
		},
	}
	for _, c := range cases {
		got := c.spec.MarshalCanonical()
		if string(got) != c.want {
			t.Errorf("MarshalCanonical(%+v)\n got %s\nwant %s", c.spec, got, c.want)
		}
		// Canonical bytes are valid JSON that decodes back to a spec
		// with the same canonical bytes (a fixpoint).
		var back JobSpec
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("canonical bytes are not JSON: %v", err)
		}
		if again := back.MarshalCanonical(); !bytes.Equal(again, got) {
			t.Errorf("canonical encoding is not a fixpoint: %s vs %s", again, got)
		}
	}
}

// Hashing is stable across spellings of the same job and distinct for
// different jobs.
func TestJobSpecHash(t *testing.T) {
	a := JobSpec{Experiment: "fig5", FaultPlan: "degraded"}
	b := JobSpec{Experiment: "fig5", FaultPlan: "degraded", Seed: 5, SchemaVersion: 1}
	if a.Hash() != b.Hash() {
		t.Errorf("equivalent specs hash differently: %s vs %s", a.Hash(), b.Hash())
	}
	c := JobSpec{Experiment: "fig5", FaultPlan: "degraded", Seed: 6}
	if a.Hash() == c.Hash() {
		t.Errorf("re-seeded plan collides with the catalog seed")
	}
	d := JobSpec{Experiment: "fig6"}
	if a.Hash() == d.Hash() {
		t.Errorf("different experiments collide")
	}
	if len(a.Hash()) != 64 {
		t.Errorf("hash is not hex SHA-256: %q", a.Hash())
	}
}

// Validate classifies every rejection with a typed error.
func TestJobSpecValidate(t *testing.T) {
	reg := Paper()
	cases := []struct {
		name string
		spec JobSpec
		want error
	}{
		{"ok", JobSpec{Experiment: "fig5"}, nil},
		{"ok full", JobSpec{SchemaVersion: 1, Experiment: "ext-rack-npb", Quick: true,
			Nodes: 16, FaultPlan: "lossy-pcie", Seed: 7,
			Model: map[string]float64{ModelStreamBankLimit: 0}}, nil},
		{"unknown experiment", JobSpec{Experiment: "fig99"}, ErrUnknownExperiment},
		{"empty experiment", JobSpec{}, ErrUnknownExperiment},
		{"v2 schema ok", JobSpec{SchemaVersion: 2, Experiment: "fig5"}, nil},
		{"bad schema", JobSpec{SchemaVersion: 3, Experiment: "fig5"}, ErrBadSchemaVersion},
		{"bad schema before experiment", JobSpec{SchemaVersion: 3, Experiment: "fig99"}, ErrBadSchemaVersion},
		{"fleet ok", JobSpec{Experiment: "ext-fleet-mtbf", Seed: 9,
			Fleet: &FleetSpec{Nodes: 32, Scheduler: "round-robin", MTBF: "steady",
				DurationS: 600, HealthS: 30}}, nil},
		{"fleet on non-fleet experiment", JobSpec{Experiment: "fig5",
			Fleet: &FleetSpec{Nodes: 8}}, ErrBadFleetExperiment},
		{"fleet with fault plan", JobSpec{Experiment: "ext-fleet-mtbf", FaultPlan: "degraded",
			Fleet: &FleetSpec{Nodes: 8}}, ErrBadFleetExperiment},
		{"fleet too large", JobSpec{Experiment: "ext-fleet-mtbf",
			Fleet: &FleetSpec{Nodes: 513}}, ErrBadFleetNodes},
		{"fleet negative nodes", JobSpec{Experiment: "ext-fleet-mtbf",
			Fleet: &FleetSpec{Nodes: -1}}, ErrBadFleetNodes},
		{"fleet bad duration", JobSpec{Experiment: "ext-fleet-mtbf",
			Fleet: &FleetSpec{DurationS: 86401}}, ErrBadFleetDuration},
		{"fleet bad scheduler", JobSpec{Experiment: "ext-fleet-mtbf",
			Fleet: &FleetSpec{Scheduler: "clairvoyant"}}, ErrBadFleetScheduler},
		{"fleet bad mtbf", JobSpec{Experiment: "ext-fleet-mtbf",
			Fleet: &FleetSpec{MTBF: "immortal"}}, ErrBadFleetMTBF},
		{"fleet bad health", JobSpec{Experiment: "ext-fleet-mtbf",
			Fleet: &FleetSpec{HealthS: -5}}, ErrBadFleetHealth},
		{"non-pow2 nodes", JobSpec{Experiment: "fig5", Nodes: 3}, ErrBadNodes},
		{"nodes too large", JobSpec{Experiment: "fig5", Nodes: 256}, ErrBadNodes},
		{"one node", JobSpec{Experiment: "fig5", Nodes: 1}, ErrBadNodes},
		{"unknown plan", JobSpec{Experiment: "fig5", FaultPlan: "nope"}, ErrUnknownFaultPlan},
		{"seed without plan", JobSpec{Experiment: "fig5", Seed: 3}, ErrBadSeed},
		{"unknown model key", JobSpec{Experiment: "fig5",
			Model: map[string]float64{"warp_factor": 9}}, ErrBadModelOverride},
		{"non-boolean bool knob", JobSpec{Experiment: "fig5",
			Model: map[string]float64{ModelCacheCapture: 0.5}}, ErrBadModelOverride},
		{"non-positive penalty", JobSpec{Experiment: "fig5",
			Model: map[string]float64{ModelOSCorePenalty: 0}}, ErrBadModelOverride},
	}
	// Env() makes the same environment checks from the same code: only
	// the experiment's own rejections pass it.
	experimentOnly := map[string]bool{
		"unknown experiment": true, "empty experiment": true, "fleet on non-fleet experiment": true,
	}
	for _, c := range cases {
		envWant := c.want
		if experimentOnly[c.name] {
			envWant = nil
		}
		if _, err := c.spec.Env(); (envWant == nil) != (err == nil) || !errors.Is(err, envWant) {
			t.Errorf("%s: Env() = %v, want errors.Is(%v)", c.name, err, envWant)
		}
		err := c.spec.Validate(reg)
		if c.want == nil {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want errors.Is(%v)", c.name, err, c.want)
		}
	}
}

// Env applies the spec: quick, nodes, re-seeded fault plan, and model
// overrides all land on the built environment.
func TestJobSpecEnv(t *testing.T) {
	spec := JobSpec{Experiment: "fig5", Quick: true, Nodes: 8,
		FaultPlan: "degraded", Seed: 42,
		Model: map[string]float64{ModelOSCorePenalty: 2.0, ModelCacheCapture: 0}}
	env, err := spec.Env()
	if err != nil {
		t.Fatal(err)
	}
	if !env.Quick || env.RackNodes != 8 {
		t.Errorf("quick/nodes not applied: %+v", env)
	}
	if env.Faults == nil || env.Faults.Name != "degraded" || env.Faults.Seed != 42 {
		t.Errorf("fault plan not re-seeded: %v", env.Faults)
	}
	if catalog, _ := simfault.ByName("degraded"); catalog.Seed == 42 {
		t.Fatalf("test needs a seed that differs from the catalog")
	}
	if env.Model.OSCorePenalty != 2.0 || env.Model.CacheCapture {
		t.Errorf("model overrides not applied: %+v", env.Model)
	}
	if env.Model != func() core.Model {
		m := core.DefaultModel()
		m.OSCorePenalty = 2.0
		m.CacheCapture = false
		return m
	}() {
		t.Errorf("unrelated model knobs drifted: %+v", env.Model)
	}
	if _, err := (JobSpec{Experiment: "fig5", Seed: 1}).Env(); !errors.Is(err, ErrBadSeed) {
		t.Errorf("Env accepted a seed without a plan: %v", err)
	}
}

// randomFleetSpec draws a valid v2 fleet spec over the scheduler and
// MTBF catalogs, the seed space, and the fleet-size/horizon bounds.
func randomFleetSpec(rng *rand.Rand) JobSpec {
	exps := []string{"ext-fleet-mtbf", "ext-fleet-recovery"}
	fleet := &FleetSpec{Nodes: 1 << rng.Intn(7)}
	if rng.Intn(2) == 0 {
		fleet.Scheduler = simfleet.PolicyNames()[rng.Intn(len(simfleet.PolicyNames()))]
	}
	if rng.Intn(2) == 0 {
		fleet.MTBF = simfleet.ProfileNames()[rng.Intn(len(simfleet.ProfileNames()))]
	}
	if rng.Intn(2) == 0 {
		fleet.DurationS = float64(60 + rng.Intn(240))
	}
	if rng.Intn(2) == 0 {
		fleet.HealthS = float64(10 + rng.Intn(50))
	}
	return JobSpec{
		Experiment: exps[rng.Intn(len(exps))],
		Quick:      true,
		Seed:       uint64(rng.Intn(4)), // 0 and 1 both mean the default
		Fleet:      fleet,
	}
}

// randomSpec draws a valid spec over the cheap experiments, the fault
// catalog, the fleet domain, and the model-override domain.
func randomSpec(rng *rand.Rand) JobSpec {
	if rng.Intn(3) == 0 {
		return randomFleetSpec(rng)
	}
	exps := []string{"fig7", "fig13", "fig15", "fig17", "table1"}
	spec := JobSpec{Experiment: exps[rng.Intn(len(exps))], Quick: true}
	if rng.Intn(2) == 0 {
		names := simfault.Names()
		spec.FaultPlan = names[rng.Intn(len(names))]
		if rng.Intn(2) == 0 {
			spec.Seed = uint64(rng.Intn(5)) // 0 = keep the catalog seed
		}
	}
	switch rng.Intn(4) {
	case 0:
		spec.Model = map[string]float64{ModelOSCorePenalty: 1 + rng.Float64()}
	case 1:
		spec.Model = map[string]float64{ModelCacheCapture: float64(rng.Intn(2))}
	case 2:
		spec.Model = map[string]float64{
			ModelThreadLatencyHiding: float64(rng.Intn(2)),
			ModelStreamBankPenalty:   0.5 + rng.Float64(),
		}
	}
	if rng.Intn(4) == 0 {
		spec.Nodes = 2 << rng.Intn(6)
	}
	return spec
}

// The round-trip property Normalize promises: a spec, its normalized
// form, and the spec decoded from its canonical bytes all build
// environments that render the experiment byte-for-byte alike, so a
// cache entry keyed by the canonical form answers every spelling.
func TestJobSpecEnvRoundTripProperty(t *testing.T) {
	reg := Paper()
	rng := rand.New(rand.NewSource(7))
	trials := 25
	if testing.Short() {
		trials = 8
	}
	for i := 0; i < trials; i++ {
		spec := randomSpec(rng)
		if err := spec.Validate(reg); err != nil {
			t.Fatalf("trial %d: generated invalid spec %+v: %v", i, spec, err)
		}
		var decoded JobSpec
		if err := json.Unmarshal(spec.MarshalCanonical(), &decoded); err != nil {
			t.Fatalf("trial %d: canonical bytes do not decode: %v", i, err)
		}
		exp, ok := reg.ByID(spec.Experiment)
		if !ok {
			t.Fatalf("trial %d: experiment vanished", i)
		}
		var outs [3][]byte
		for j, s := range []JobSpec{spec, spec.Normalize(), decoded} {
			env, err := s.Env()
			if err != nil {
				t.Fatalf("trial %d: Env of %+v: %v", i, s, err)
			}
			if outs[j], err = RenderBytes(exp, env); err != nil {
				t.Fatalf("trial %d: render %+v: %v", i, s, err)
			}
		}
		if !bytes.Equal(outs[0], outs[1]) || !bytes.Equal(outs[0], outs[2]) {
			t.Errorf("trial %d: normalized or decoded spec changes output for %+v", i, spec)
		}
	}
}

// FuzzJobSpec decodes arbitrary bytes as a JobSpec the way maiad does
// (unknown fields refused) and, for every spec the paper registry
// accepts, checks the content-address invariants: Normalize is
// idempotent, Hash ignores it, and the canonical bytes decode back into
// a valid spec with the same canonical bytes.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{"experiment":"fig7","quick":true}`))
	f.Add([]byte(`{"experiment":"ext-rack-npb","nodes":8}`))
	f.Add([]byte(`{"experiment":"fig25","fault_plan":"degraded","seed":7,"model":{"os_core_penalty":1.5,"cache_capture":0}}`))
	f.Add([]byte(`{"schema_version":2,"experiment":"ext-fleet-recovery","seed":3,"fleet":{"nodes":8,"scheduler":"round-robin","duration_s":3600.5,"health_s":30}}`))
	reg := Paper()
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil || spec.Validate(reg) != nil {
			return
		}
		n := spec.Normalize()
		if again := n.Normalize(); !reflect.DeepEqual(again, n) {
			t.Fatalf("Normalize not idempotent:\n once  %+v\n twice %+v", n, again)
		}
		if spec.Hash() != n.Hash() {
			t.Fatalf("Normalize changed the hash of %s", data)
		}
		canon := spec.MarshalCanonical()
		var back JobSpec
		dec = json.NewDecoder(bytes.NewReader(canon))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("canonical bytes %s do not decode: %v", canon, err)
		}
		if err := back.Validate(reg); err != nil {
			t.Fatalf("canonical bytes %s do not validate: %v", canon, err)
		}
		if got := back.MarshalCanonical(); !bytes.Equal(got, canon) {
			t.Fatalf("canonical round trip drifted:\n %s\n %s", canon, got)
		}
	})
}
