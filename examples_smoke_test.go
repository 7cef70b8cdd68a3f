// Smoke tests for the examples/ programs: each must build and run to
// completion, printing its headline lines — so refactors can't silently
// break the documented entry points.
package main_test

import (
	"os/exec"
	"strings"
	"testing"
)

// exampleChecks maps each example to substrings its output must contain.
var exampleChecks = map[string][]string{
	"quickstart":  {"node: 16 host cores", "STREAM triad", "offload"},
	"npbsweep":    {"NPB class C, OpenMP", "NPB class C, MPI", "FT"},
	"cfd":         {"cart3d", "overflow", "MPI"},
	"offload":     {"offload PCIe bandwidth", "framing ceiling"},
	"distributed": {"NPB kernels", "EP", "MATCHES serial"},
}

// exampleCounts maps an example to substrings its output must contain
// exactly that many times; a count of zero rules a line out.
var exampleCounts = map[string]map[string]int{
	// Every one of the eight MPI kernels matches its serial kernel.
	"distributed": {"MATCHES serial": 8, "DIVERGES": 0},
}

// Every example builds and runs successfully with the expected output.
func TestExamplesBuildAndRun(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for name, wants := range exampleChecks {
		name, wants := name, wants
		t.Run(name, func(t *testing.T) {
			out, err := exec.Command(bin + "/" + name).CombinedOutput()
			if err != nil {
				t.Fatalf("%s exited with %v\n%s", name, err, out)
			}
			for _, want := range wants {
				if !strings.Contains(string(out), want) {
					t.Errorf("%s output missing %q", name, want)
				}
			}
			for sub, want := range exampleCounts[name] {
				if got := strings.Count(string(out), sub); got != want {
					t.Errorf("%s output has %q %d times, want %d\n%s", name, sub, got, want, out)
				}
			}
		})
	}
}
