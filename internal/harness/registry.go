// The typed experiment registry. This replaces the former package-global
// map populated by init() side effects: construction is explicit
// (Paper() assembles the reproduction suite from per-area experiment
// lists), registration failures are errors rather than hidden panics at
// import time, and presentation order comes from Experiment metadata
// (Kind, Order, ID) instead of string-parsing IDs.
package harness

import (
	"fmt"
	"io"
	"sort"
)

// Registry is an explicit, ordered collection of experiments.
type Registry struct {
	exps []Experiment
	byID map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]int)}
}

// Register adds an experiment. An empty ID, a nil Run, or a duplicate
// ID is rejected.
func (r *Registry) Register(e Experiment) error {
	if e.ID == "" {
		return fmt.Errorf("harness: experiment with empty ID (%q)", e.Title)
	}
	if e.Run == nil {
		return fmt.Errorf("harness: experiment %s has no Run function", e.ID)
	}
	if _, dup := r.byID[e.ID]; dup {
		return fmt.Errorf("harness: duplicate experiment %s", e.ID)
	}
	r.byID[e.ID] = len(r.exps)
	r.exps = append(r.exps, e)
	return nil
}

// mustRegister is Register for statically-known experiment lists, where
// a failure is a programming error.
func (r *Registry) mustRegister(exps ...Experiment) {
	for _, e := range exps {
		if err := r.Register(e); err != nil {
			panic(err)
		}
	}
}

// ByID returns the experiment with the given ID.
func (r *Registry) ByID(id string) (Experiment, bool) {
	i, ok := r.byID[id]
	if !ok {
		return Experiment{}, false
	}
	return r.exps[i], true
}

// Len reports how many experiments are registered.
func (r *Registry) Len() int { return len(r.exps) }

// All returns every experiment in presentation order: by Kind (tables,
// figures, report, extensions), then Order (the figure number), then
// ID. The order is a pure function of the registered set — registration
// order never shows through.
func (r *Registry) All() []Experiment {
	out := append([]Experiment(nil), r.exps...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Order != b.Order {
			return a.Order < b.Order
		}
		return a.ID < b.ID
	})
	return out
}

// RunAll executes every experiment in presentation order, streaming each
// one's framed output to w as it completes. With tracing enabled the
// tracer's process name follows the running experiment.
func (r *Registry) RunAll(w io.Writer, env Env) error {
	for _, e := range r.All() {
		env.Tracer.SetProcess(e.ID)
		if err := Render(w, e, env); err != nil {
			return err
		}
	}
	return nil
}

// Paper assembles the full reproduction suite: Table 1, Figures 4–27,
// the summary report, and the ext-* extension studies.
func Paper() *Registry {
	r := NewRegistry()
	r.mustRegister(memoryExperiments()...)
	r.mustRegister(pcieExperiments()...)
	r.mustRegister(mpiExperiments()...)
	r.mustRegister(ompExperiments()...)
	r.mustRegister(npbExperiments()...)
	r.mustRegister(appExperiments()...)
	r.mustRegister(reportExperiments()...)
	r.mustRegister(extensionExperiments()...)
	r.mustRegister(rackExperiments()...)
	r.mustRegister(faultExperiments()...)
	r.mustRegister(fleetExperiments()...)
	return r
}
