package harness

import (
	"bytes"
	"testing"

	"maia/internal/simfault"
)

// faultFamily returns the ext-fault-* experiments from the registry.
func faultFamily(t *testing.T) []Experiment {
	t.Helper()
	var fam []Experiment
	for _, e := range Paper().All() {
		if len(e.ID) >= 10 && e.ID[:10] == "ext-fault-" {
			fam = append(fam, e)
		}
	}
	if len(fam) != 3 {
		t.Fatalf("expected 3 ext-fault experiments, registry has %d", len(fam))
	}
	return fam
}

// Every fault experiment embeds its own seeded plan, so two renders are
// byte-identical — the property the golden snapshots rely on.
func TestFaultExperimentsDeterministic(t *testing.T) {
	env := quickEnv()
	for _, e := range faultFamily(t) {
		first, err := RenderBytes(e, env)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		second, err := RenderBytes(e, env)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: two renders differ under the same seed", e.ID)
		}
	}
}

// Under an injected fault plan the parallel suite runner still produces
// byte-identical output to the sequential one: every fault decision is a
// pure function of (seed, event identity), never goroutine interleaving.
func TestFaultedSuiteParallelMatchesSequential(t *testing.T) {
	env := quickEnv()
	env.Faults = simfault.Degraded()
	reg := Paper()
	// The fault-sensitive cross-section: MPI, OpenMP, offload, the
	// OVERFLOW driver, and the fault family itself.
	var exps []Experiment
	for _, id := range []string{"fig10", "fig12", "fig15", "fig25",
		"ext-offload-pipeline", "ext-fault-fabric", "ext-fault-straggler", "ext-fault-failover"} {
		e, ok := reg.ByID(id)
		if !ok {
			t.Fatalf("experiment %s missing from registry", id)
		}
		exps = append(exps, e)
	}
	var seq, par bytes.Buffer
	if _, err := RunExperiments(&seq, env, exps, 1); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	if _, err := RunExperiments(&par, env, exps, 4); err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatal("faulted parallel run diverged from sequential")
	}
}
