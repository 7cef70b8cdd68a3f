package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"maia/internal/harness"
)

// EP class S reproduces the official NPB verification sums and reports
// VERIFIED.
func TestRunEPClassS(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-bench", "ep", "-class", "S", "-threads", "4"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"--- EP ---", "accepted=13176389", "VERIFIED"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "FAILED") {
		t.Errorf("unexpected failure:\n%s", out)
	}
}

// Every benchmark's distributed run at 2 ranks matches its serial run
// (run returns an error on any divergence).
func TestRunWithMPI(t *testing.T) {
	for _, tc := range []struct{ bench, mpiLine string }{
		{"ep", "sums match serial"},
		{"cg", "zeta="},
		{"mg", "residual history matches serial"},
		{"ft", "checksums match serial"},
		{"is", "sorted output matches serial"},
		{"bt", "norm history matches serial"},
		{"lu", "norm history matches serial"},
		{"sp", "norm history matches serial"},
	} {
		t.Run(tc.bench, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run([]string{"-bench", tc.bench, "-mpi", "2"}, &buf); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			header := "--- " + strings.ToUpper(tc.bench) + " ---"
			for _, want := range []string{header, "MPI(2 ranks): " + tc.mpiLine, "VERIFIED"} {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

// Unknown benchmarks and bad flags are rejected (main exits nonzero on
// the returned error).
func TestRunRejectsBadArgs(t *testing.T) {
	if err := run([]string{"-bench", "nosuch"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := run([]string{"-definitely-not-a-flag"}, &bytes.Buffer{}); err == nil {
		t.Error("bad flag accepted")
	}
}

// The shared fault surface threads into the simulated OpenMP runtime:
// kernel verification is unaffected, unknown plans and orphan seeds are
// rejected exactly like maiabench.
func TestRunWithFaultPlan(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-bench", "ep", "-faults", "phi-straggler", "-seed", "7"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "VERIFIED") {
		t.Errorf("EP did not verify under a fault plan:\n%s", buf.String())
	}
	if err := run([]string{"-bench", "ep", "-faults", "nope"}, &bytes.Buffer{}); !errors.Is(err, harness.ErrUnknownFaultPlan) {
		t.Errorf("unknown fault plan: got %v, want ErrUnknownFaultPlan", err)
	}
	if err := run([]string{"-bench", "ep", "-seed", "7"}, &bytes.Buffer{}); !errors.Is(err, harness.ErrBadSeed) {
		t.Errorf("-seed without -faults: got %v, want ErrBadSeed", err)
	}
}
