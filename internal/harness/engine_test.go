package harness

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"maia/internal/machine"
	"maia/internal/simomp"
	"maia/internal/vclock"
)

// Parallel execution of the real suite assembles the exact bytes of a
// sequential run. One worker count here keeps the test affordable; the
// worker-count sweep below covers the scheduler with cheap synthetic
// experiments.
func TestParallelMatchesSequential(t *testing.T) {
	env := quickEnv()
	reg := Paper()
	var seq bytes.Buffer
	if err := reg.RunAll(&seq, env); err != nil {
		t.Fatal(err)
	}
	var par bytes.Buffer
	results, err := RunExperiments(&par, env, reg.All(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Error("parallel output differs from sequential")
	}
	if len(results) != reg.Len() {
		t.Errorf("%d results, want %d", len(results), reg.Len())
	}
}

// The scheduler preserves order for every worker count, including more
// workers than experiments, even when completion order is scrambled.
func TestParallelOrderAcrossWorkerCounts(t *testing.T) {
	var exps []Experiment
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("synthetic%02d", i)
		delay := time.Duration((i*7)%13) * time.Millisecond // scramble completion order
		exps = append(exps, Experiment{
			ID: id, Title: "synthetic", Paper: "none",
			Run: func(w io.Writer, env Env) error {
				time.Sleep(delay)
				_, err := fmt.Fprintf(w, "body of %s\n", id)
				return err
			},
		})
	}
	var seq bytes.Buffer
	if _, err := RunExperiments(&seq, quickEnv(), exps, 1); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7, 40, 100} {
		var par bytes.Buffer
		if _, err := RunExperiments(&par, quickEnv(), exps, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(seq.Bytes(), par.Bytes()) {
			t.Errorf("workers=%d: output differs from sequential", workers)
		}
	}
}

// Every experiment, run twice concurrently against cloned environments,
// produces byte-identical output: the runtime stack (simmpi ranks,
// simomp teams, memsim traces) shares no mutable state across Envs.
// Run under -race this is also the data-race audit.
func TestConcurrentDeterminism(t *testing.T) {
	env := quickEnv()
	exps := Paper().All()
	outs := make([][2][]byte, len(exps))

	sem := make(chan struct{}, 4) // bound peak memory, not determinism
	var wg sync.WaitGroup
	for i, e := range exps {
		for j := 0; j < 2; j++ {
			wg.Add(1)
			go func(i, j int, e Experiment) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				out, err := RenderBytes(e, env.Clone())
				if err != nil {
					t.Errorf("%s (copy %d): %v", e.ID, j, err)
					return
				}
				outs[i][j] = out
			}(i, j, e)
		}
	}
	wg.Wait()
	for i, e := range exps {
		if !bytes.Equal(outs[i][0], outs[i][1]) {
			t.Errorf("%s: concurrent runs diverge", e.ID)
		}
	}
}

// Result metadata matches what was actually written.
func TestRunExperimentsResults(t *testing.T) {
	env := quickEnv()
	exps := Paper().All()[:4]
	var out bytes.Buffer
	results, err := RunExperiments(&out, env, exps, 2)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, r := range results {
		if r.ID != exps[i].ID || r.Index != i {
			t.Errorf("result %d is %s/%d, want %s/%d", i, r.ID, r.Index, exps[i].ID, i)
		}
		if r.Err != nil {
			t.Errorf("%s: %v", r.ID, r.Err)
		}
		if r.Bytes <= 0 {
			t.Errorf("%s reports %d bytes", r.ID, r.Bytes)
		}
		if r.Wall <= 0 {
			t.Errorf("%s reports non-positive wall time", r.ID)
		}
		total += r.Bytes
	}
	if total != out.Len() {
		t.Errorf("results claim %d bytes, writer got %d", total, out.Len())
	}
}

// A failing experiment stops output at its position (like RunAll) and is
// reported both as the returned error and in its Result.
func TestRunExperimentsError(t *testing.T) {
	boom := errors.New("boom")
	exps := []Experiment{
		{ID: "ok1", Title: "t", Paper: "p", Run: func(w io.Writer, env Env) error { return nil }},
		{ID: "bad", Title: "t", Paper: "p", Run: func(w io.Writer, env Env) error { return boom }},
		{ID: "ok2", Title: "t", Paper: "p", Run: func(w io.Writer, env Env) error { return nil }},
	}
	var out bytes.Buffer
	results, err := RunExperiments(&out, quickEnv(), exps, 3)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !errors.Is(results[1].Err, boom) {
		t.Errorf("results[1].Err = %v, want wrapped boom", results[1].Err)
	}
	if got, want := out.String(), "== ok1: t ==\npaper: p\n\n"; got != want {
		t.Errorf("output %q, want only the experiment before the failure (%q)", got, want)
	}
}

// A panicking experiment, here one whose OpenMP loop body panics on a
// worker goroutine, fails alone: its Result carries the panic, output
// stops before it, and the experiments after it still run and report.
func TestRunExperimentsRecoversPanic(t *testing.T) {
	reg := NewRegistry()
	ok := func(w io.Writer, env Env) error { _, err := io.WriteString(w, "body\n"); return err }
	for _, e := range []Experiment{
		{ID: "ok1", Title: "t", Paper: "p", Order: 1, Run: ok},
		{ID: "bad", Title: "t", Paper: "p", Order: 2, Run: func(w io.Writer, env Env) error {
			team := simomp.NewTeam(simomp.New(machine.HostPartition(env.Node, 1)))
			team.ParallelFor(64, simomp.ForOpts{IterCost: vclock.Nanosecond}, func(i int) {
				if i == 17 {
					panic("kaboom")
				}
			})
			return nil
		}},
		{ID: "ok2", Title: "t", Paper: "p", Order: 3, Run: ok},
	} {
		if err := reg.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2} {
		var out bytes.Buffer
		results, err := RunExperiments(&out, quickEnv(), reg.All(), workers)
		const want = "harness: bad: panic: kaboom"
		if err == nil || err.Error() != want {
			t.Errorf("workers=%d: err = %v, want %q", workers, err, want)
		}
		if results[1].Err == nil || results[1].Err.Error() != want {
			t.Errorf("workers=%d: results[1].Err = %v, want %q", workers, results[1].Err, want)
		}
		if results[2].Err != nil || results[2].Bytes == 0 {
			t.Errorf("workers=%d: experiment after the panic reports err %v, %d bytes", workers, results[2].Err, results[2].Bytes)
		}
		if got, wantOut := out.String(), "== ok1: t ==\npaper: p\nbody\n\n"; got != wantOut {
			t.Errorf("workers=%d: output %q, want only the experiment before the panic (%q)", workers, got, wantOut)
		}
	}
}

// Clones share no mutable state with the original environment.
func TestEnvCloneIsolated(t *testing.T) {
	env := DefaultEnv()
	c := env.Clone()
	if c.Node == env.Node {
		t.Fatal("Clone shares the Node pointer")
	}
	c.Node.HostProc.Caches[0].SizeBytes = 1
	if env.Node.HostProc.Caches[0].SizeBytes == 1 {
		t.Fatal("Clone shares the host cache slice")
	}
	c.Node.PhiProc.Caches[0].SizeBytes = 1
	if env.Node.PhiProc.Caches[0].SizeBytes == 1 {
		t.Fatal("Clone shares the Phi cache slice")
	}
	c.Model.OSCorePenalty = 99
	if env.Model.OSCorePenalty == 99 {
		t.Fatal("Clone shares the Model")
	}
}
