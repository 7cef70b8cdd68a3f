package main

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"testing/fstest"

	"maia/internal/harness"
	"maia/internal/maiad"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNamesAreWellFormed(t *testing.T) {
	names := append([]string(nil), workloads...)
	for _, m := range endToEnd {
		names = append(names, m.name)
	}
	for _, m := range perLayerMetrics(harness.Paper().All()) {
		names = append(names, m.name)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
}

func TestCatalogueCoversEveryModule(t *testing.T) {
	have := map[string]bool{}
	for _, m := range perLayerMetrics(harness.Paper().All()) {
		have[strings.SplitN(m.name, ".", 2)[0]] = true
	}
	for _, mod := range []string{"memsim", "simmpi", "npb", "overflow", "simomp", "offload",
		"simfleet", "harness", "maiad", "loadgen"} {
		if !have[mod] {
			t.Errorf("no per-layer metric for module %s", mod)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue pins BENCHMARK.json, at the
// repository root, to the metrics and workloads the program reports.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayerMetrics(harness.Paper().All()))
	var wl []metricDef
	for _, w := range workloads {
		wl = append(wl, metricDef{name: w})
	}
	check("workloads", spec.Workloads, wl)
}

func TestColdKeysRepeatPerSeedAndNeverCollide(t *testing.T) {
	keys := func(seed uint64) []string {
		var out []string
		for _, s := range coldSpecs(seed, 300, 200) {
			out = append(out, s.Hash())
		}
		return out
	}
	a, again, b := keys(1), keys(1), keys(2)
	if strings.Join(a, ",") != strings.Join(again, ",") {
		t.Fatal("seed 1 minted two different key sequences")
	}
	seen := map[string]bool{}
	for _, e := range harness.Paper().All() {
		seen[harness.JobSpec{Experiment: e.ID}.Hash()] = true // the golden keys
	}
	for _, k := range append(a, b...) {
		if seen[k] {
			t.Fatalf("key %s minted twice, or equal to a golden key", k)
		}
		seen[k] = true
	}
}

func TestCorruptGoldenFailsSuite(t *testing.T) {
	reg := harness.Paper()
	var exps []harness.Experiment
	golden := fstest.MapFS{}
	for _, id := range []string{"table1", "fig17", "ext-checkpoint"} {
		e, ok := reg.ByID(id)
		if !ok {
			t.Fatalf("no experiment %s", id)
		}
		exps = append(exps, e)
		b, err := harness.RenderBytes(e, harness.DefaultEnv())
		if err != nil {
			t.Fatal(err)
		}
		golden[harness.GoldenName(id)] = &fstest.MapFile{Data: b}
	}
	var buf bytes.Buffer
	s, err := newSuiteBench(exps, golden)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.rep(&buf); err != nil || st.mismatches != 0 {
		t.Fatalf("intact goldens: %d mismatches, err %v", st.mismatches, err)
	}
	bad := golden[harness.GoldenName("fig17")].Data
	bad = append([]byte(nil), bad...)
	bad[len(bad)/2] ^= 1
	golden[harness.GoldenName("fig17")] = &fstest.MapFile{Data: bad}
	if s, err = newSuiteBench(exps, golden); err != nil {
		t.Fatal(err)
	}
	if st, err := s.rep(&buf); err != nil || st.mismatches != 1 {
		t.Fatalf("one corrupted golden: %d mismatches, err %v; want 1", st.mismatches, err)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(append([]float64(nil), xs...), 0.5); got != 3 {
		t.Errorf("median %v, want 3", got)
	}
	if got := quantile(append([]float64(nil), xs...), 0.9); got != 4.6 {
		t.Errorf("p90 %v, want 4.6", got)
	}
	// Four windows of 100: one stalled window does not move the figure.
	var lat []float64
	for w := 0; w < 4; w++ {
		for i := 0; i < 100; i++ {
			x := float64(i % 10)
			if w == 2 && i >= 90 {
				x = 1000
			}
			lat = append(lat, x)
		}
	}
	if got := windowedQuantile(lat, 100, 0.99); got != 9 {
		t.Errorf("windowed p99 %v, want 9", got)
	}
}

// TestOpenLoopAgainstInProcessDaemon drives golden hits at an in-process
// maiad over both connections and checks every answer; run it with -race.
func TestOpenLoopAgainstInProcessDaemon(t *testing.T) {
	s, err := newSuiteBench(harness.Paper().All(), harness.EmbeddedGolden())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := maiad.New(maiad.Config{Golden: harness.EmbeddedGolden(), Workers: conns})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	b := &bench{rng: rand.New(rand.NewPCG(1, 2))}
	res := openLoop(newClient(), ts.URL, 1000, b.pick(hotPool(s), 300))
	if err := res.firstErr(); err != nil {
		t.Fatal(err)
	}
	if len(res.outs) != 300 || res.achievedRPS() <= 0 {
		t.Fatalf("%d outcomes at %.1f/s", len(res.outs), res.achievedRPS())
	}
	if runs := srv.Metrics().EngineRuns.Load(); runs != 0 {
		t.Fatalf("%d engine runs serving golden hits", runs)
	}
}
