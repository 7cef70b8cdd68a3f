package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"maia/internal/core"
)

func quickEnv() Env {
	env := DefaultEnv()
	env.Quick = true
	return env
}

// Every registered experiment runs without error and produces output.
func TestAllExperimentsRun(t *testing.T) {
	env := quickEnv()
	for _, e := range Paper().All() {
		var buf bytes.Buffer
		if err := e.Run(&buf, env); err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", e.ID)
		}
	}
}

// The registry covers Table 1 and Figures 4 through 27 without gaps.
func TestRegistryComplete(t *testing.T) {
	reg := Paper()
	want := []string{"table1"}
	for f := 4; f <= 27; f++ {
		want = append(want, "fig"+itoa(f))
	}
	want = append(want, "report", "ext-offload-pipeline", "ext-checkpoint", "ext-profile", "ext-stride", "ext-tasks",
		"ext-rack-npb", "ext-rack-overflow",
		"ext-fault-fabric", "ext-fault-straggler", "ext-fault-failover",
		"ext-fleet-mtbf", "ext-fleet-recovery")
	for _, id := range want {
		if _, ok := reg.ByID(id); !ok {
			t.Errorf("experiment %s missing", id)
		}
	}
	if reg.Len() != len(want) {
		t.Errorf("registry has %d experiments, want %d", reg.Len(), len(want))
	}
}

func itoa(n int) string {
	if n >= 10 {
		return string(rune('0'+n/10)) + string(rune('0'+n%10))
	}
	return string(rune('0' + n))
}

// Every experiment carries complete presentation metadata: a section, a
// kind consistent with its ID, and (for figures) the figure number as
// Order.
func TestExperimentMetadata(t *testing.T) {
	for _, e := range Paper().All() {
		if e.Section == "" {
			t.Errorf("%s has no Section", e.ID)
		}
		switch {
		case e.ID == "table1":
			if e.Kind != KindTable {
				t.Errorf("%s kind %v, want table", e.ID, e.Kind)
			}
		case strings.HasPrefix(e.ID, "fig"):
			if e.Kind != KindFigure {
				t.Errorf("%s kind %v, want figure", e.ID, e.Kind)
			}
			if e.ID != "fig"+itoa(e.Order) {
				t.Errorf("%s has Order %d", e.ID, e.Order)
			}
		case strings.HasPrefix(e.ID, "ext-"):
			if e.Kind != KindExtension {
				t.Errorf("%s kind %v, want extension", e.ID, e.Kind)
			}
		default:
			if e.Kind != KindReport {
				t.Errorf("%s kind %v, want report", e.ID, e.Kind)
			}
		}
	}
}

func TestByIDMissing(t *testing.T) {
	if _, ok := Paper().ByID("fig99"); ok {
		t.Fatal("found nonexistent experiment")
	}
}

// Spot-check key numbers in the experiments' printed output.
func TestOutputSpotChecks(t *testing.T) {
	env := quickEnv()
	reg := Paper()
	cases := []struct {
		id       string
		contains []string
	}{
		// The paper quotes 301.4 TF total from a rounded 258.8 TF Phi
		// peak; 15360 cores x 16.8 GF is exactly 258.048, so the
		// arithmetically consistent total is 300.6.
		{"table1", []string{"20.8", "16.8", "1008", "300.6"}},
		{"fig4", []string{"180.0", "140.0"}},
		{"fig5", []string{"81.0", "295.0"}},
		{"fig7", []string{"3.3", "4.6", "6.6"}},
		{"fig14", []string{"OOM"}},
		{"fig15", []string{"REDUCTION", "ATOMIC"}},
		{"fig16", []string{"STATIC", "DYNAMIC", "GUIDED"}},
		{"fig17", []string{"210", "295"}},
		{"fig20", []string{"OOM (8 GB card)"}},
		{"fig24", []string{"host 16t", "-"}},
		{"fig25", []string{"native host (16t)", "offload whole computation"}},
		{"fig27", []string{"invocations"}},
	}
	for _, c := range cases {
		e, ok := reg.ByID(c.id)
		if !ok {
			t.Errorf("%s missing", c.id)
			continue
		}
		var buf bytes.Buffer
		if err := e.Run(&buf, env); err != nil {
			t.Errorf("%s: %v", c.id, err)
			continue
		}
		out := buf.String()
		for _, want := range c.contains {
			if !strings.Contains(out, want) {
				t.Errorf("%s output missing %q:\n%s", c.id, want, out)
			}
		}
	}
}

// The report's headline claims all hold on the default machine. The
// golden pins report.txt byte for byte, so an -update after a model
// change would pin a FAIL verdict as readily as a PASS; this test
// refuses any FAIL row, whatever the golden says.
func TestReportHasNoFailingClaim(t *testing.T) {
	e, ok := Paper().ByID("report")
	if !ok {
		t.Fatal("report missing")
	}
	var buf bytes.Buffer
	if err := e.Run(&buf, DefaultEnv()); err != nil {
		t.Fatal(err)
	}
	pass := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		switch f[len(f)-1] {
		case "PASS":
			pass++
		case "FAIL":
			t.Errorf("report renders a failing claim: %s", line)
		}
	}
	want := fmt.Sprintf("%d/%d headline claims reproduce", pass, pass)
	if pass == 0 || !strings.Contains(buf.String(), want) {
		t.Errorf("report reads %d PASS rows but no %q line:\n%s", pass, want, buf.String())
	}
}

// RunAll stitches every experiment together with headers.
func TestRunAll(t *testing.T) {
	var buf bytes.Buffer
	if err := Paper().RunAll(&buf, quickEnv()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== table1", "== fig4", "== fig27", "paper:"} {
		if !strings.Contains(out, want) {
			t.Errorf("RunAll output missing %q", want)
		}
	}
}

// Experiments are deterministic: two runs produce identical bytes.
func TestExperimentsDeterministic(t *testing.T) {
	env := quickEnv()
	reg := Paper()
	for _, id := range []string{"fig8", "fig10", "fig13", "fig22"} {
		e, _ := reg.ByID(id)
		var a, b bytes.Buffer
		if err := e.Run(&a, env); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(&b, env); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("%s is nondeterministic", id)
		}
	}
}

// An Env's options are its fields: DefaultEnv leaves every one at the
// calibrated default, and the empty JobSpec builds exactly that Env.
func TestEnvOptions(t *testing.T) {
	def := DefaultEnv()
	if def.Quick || def.Tracer != nil || def.Faults != nil || def.Node == nil ||
		def.Model != core.DefaultModel() {
		t.Errorf("DefaultEnv is not the calibrated default: %+v", def)
	}
	got, err := JobSpec{}.Env()
	if err != nil {
		t.Fatal(err)
	}
	if got.Node == nil || got.Node == def.Node {
		t.Error("each Env must own a fresh Node")
	}
	got.Node, def.Node = nil, nil
	if got != def {
		t.Errorf("JobSpec{}.Env() = %+v, want DefaultEnv() %+v", got, def)
	}
}

// capSweep keeps the points at or below the limit, keeps everything
// without one, and falls back to a single point when none fits.
func TestCapSweep(t *testing.T) {
	cases := []struct {
		sweep           []int
		limit, fallback int
		want            []int
	}{
		{[]int{2, 8, 32, 128}, 0, 2, []int{2, 8, 32, 128}},
		{[]int{2, 8, 32, 128}, 16, 2, []int{2, 8}},
		{[]int{2, 8, 32, 128}, 128, 2, []int{2, 8, 32, 128}},
		{[]int{8, 64, 512}, 4, 4, []int{4}},
	}
	for _, c := range cases {
		got := capSweep(c.sweep, c.limit, c.fallback)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("capSweep(%v, %d, %d) = %v, want %v", c.sweep, c.limit, c.fallback, got, c.want)
		}
	}
}

// sizesUpTo covers 1..max multiplicatively and always ends exactly at
// max; a max below the first step must not panic (regression: the
// empty-loop case used to index out[-1]).
func TestSizesUpTo(t *testing.T) {
	env := DefaultEnv()
	cases := []struct {
		max  int
		want []int
	}{
		{0, []int{0}},
		{-5, []int{-5}},
		{1, []int{1}},
		{2, []int{1, 2}},
		{4, []int{1, 4}},
		{64, []int{1, 4, 16, 64}},
		{100, []int{1, 4, 16, 64, 100}},
	}
	for _, c := range cases {
		got := sizesUpTo(env, c.max)
		if len(got) != len(c.want) {
			t.Errorf("sizesUpTo(%d) = %v, want %v", c.max, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("sizesUpTo(%d) = %v, want %v", c.max, got, c.want)
				break
			}
		}
	}
	if got := sizesUpTo(quickEnv(), 0); len(got) != 1 || got[0] != 0 {
		t.Errorf("quick sizesUpTo(0) = %v, want [0]", got)
	}
}
