package simfleet

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"maia/internal/core"
	"maia/internal/machine"
	"maia/internal/simfault"
	"maia/internal/vclock"
)

// testTable builds (once) the default-model price table the tests share.
var testTable = sync.OnceValues(func() (*PriceTable, error) {
	return NewPriceTable(core.DefaultModel(), machine.NewNode(), 1)
})

func mustTable(t *testing.T) *PriceTable {
	t.Helper()
	tab, err := testTable()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestPriceTableParallelBuild pins the parallel == sequential contract
// at the pricing layer: a table built with a worker fan-out is
// identical to the sequential build, cell for cell.
func TestPriceTableParallelBuild(t *testing.T) {
	seq := mustTable(t)
	par, err := NewPriceTable(core.DefaultModel(), machine.NewNode(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel table differs from sequential:\nseq %+v\npar %+v", seq, par)
	}
}

// TestPriceTableShape checks every sampleable condition is priced for
// every class, with positive times, and that degraded static prices
// never beat healthy on the rebalance-sensitive overflow class.
func TestPriceTableShape(t *testing.T) {
	tab := mustTable(t)
	for _, c := range Classes() {
		if tab.Healthy[c] <= 0 {
			t.Errorf("healthy %s price %v not positive", c, tab.Healthy[c])
		}
	}
	for _, cond := range simfault.SampleConditions() {
		prices, ok := tab.Degraded[cond]
		if !ok {
			t.Errorf("condition %q unpriced", cond)
			continue
		}
		for _, c := range Classes() {
			if prices[c].Static <= 0 || prices[c].Rebalanced <= 0 {
				t.Errorf("%q %s has non-positive price %+v", cond, c, prices[c])
			}
		}
		if static := prices[ClassOverflowSym].Static; static < tab.Healthy[ClassOverflowSym] {
			t.Errorf("%q overflow static %v beats healthy %v", cond, static, tab.Healthy[ClassOverflowSym])
		}
	}
}

// TestRecoveryPinsExtFaultStraggler pins the tentpole recovery claim:
// the single-node phi-straggler scenario, run through the fleet's
// remediation loop, reproduces ext-fault-straggler's 92% recovery.
func TestRecoveryPinsExtFaultStraggler(t *testing.T) {
	st, err := Run(Config{
		Nodes:     1,
		Duration:  600 * vclock.Second,
		Profile:   "none",
		Remediate: true,
		Condition: "phi-straggler",
		Prices:    mustTable(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rebalanced != 1 {
		t.Fatalf("want exactly one rebalance, got %d (stats %+v)", st.Rebalanced, st)
	}
	if got := fmt.Sprintf("%.0f%%", st.RecoveryPct); got != "92%" {
		t.Fatalf("fleet-loop recovery %s (%.3f) does not reproduce ext-fault-straggler's 92%%",
			got, st.RecoveryPct)
	}
}

// trials is the property-suite size.
const trials = 300

// trialConfig enumerates the 300 property-suite configurations: node
// counts from a single card to the full 512, rotating seeds, policies,
// MTBF profiles, pinned and sampled conditions, remediation on and off.
// Size, policy, remediation, and duration are the mixed-radix digits of
// i (6 × 3 × 2 × 3), so every combination of them occurs instead of the
// axes advancing in lockstep; profiles and conditions cycle with periods
// coprime to 6.
func trialConfig(i int, tab *PriceTable) Config {
	nodes := []int{1, 2, 3, 8, 32, 512}[i%6]
	durations := []vclock.Time{60 * vclock.Second, 180 * vclock.Second, 420 * vclock.Second}
	conditions := []string{ConditionSampled, ConditionHealthy, "phi-straggler", "lossy-pcie", "thermal-throttle", "phi0-down", ConditionSampled}
	return Config{
		Nodes:     nodes,
		Duration:  durations[(i/36)%len(durations)],
		Seed:      uint64(i + 1),
		Profile:   ProfileNames()[i%len(ProfileNames())],
		Scheduler: PolicyNames()[(i/6)%len(PolicyNames())],
		Remediate: (i/18)%2 == 0,
		Condition: conditions[i%len(conditions)],
		Prices:    tab,
	}
}

// updateTrials regenerates testdata/trial_stats.txt. The committed file
// was produced by the linear-scan dispatcher that the eligible-node
// index replaced; regenerate it only for a deliberate model change.
var updateTrials = flag.Bool("update-trials", false, "regenerate testdata/trial_stats.txt")

const trialStatsPath = "testdata/trial_stats.txt"

// TestRunMatchesTrialStats pins every property-suite trial's Stats, byte
// for byte, to the committed fixture. No golden exercises the
// round-robin or random policies, so this is their only byte-level check
// that the indexed dispatcher picks the node a linear scan would.
func TestRunMatchesTrialStats(t *testing.T) {
	tab := mustTable(t)
	var got bytes.Buffer
	for i := 0; i < trials; i++ {
		st, err := Run(trialConfig(i, tab))
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		fmt.Fprintf(&got, "%+v\n", st)
	}
	if *updateTrials {
		if err := os.WriteFile(trialStatsPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(trialStatsPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d trial lines, fixture has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			cfg := trialConfig(i, tab)
			t.Errorf("trial %d (%d nodes, %s, remediate=%v) diverged:\ngot  %s\nwant %s",
				i, cfg.Nodes, cfg.Scheduler, cfg.Remediate, gotLines[i], wantLines[i])
		}
	}
}

// TestRunParallelEqualsSequential is the 300-trial property suite: each
// trial's Stats must be identical whether the trials run one at a time
// or all at once on goroutines, and whether the price table was built
// sequentially or with the worker fan-out. Stats equality is stronger
// than byte-identical rendered output — the harness text is a pure
// function of Stats.
func TestRunParallelEqualsSequential(t *testing.T) {
	seqTab := mustTable(t)
	parTab, err := NewPriceTable(core.DefaultModel(), machine.NewNode(), 8)
	if err != nil {
		t.Fatal(err)
	}

	sequential := make([]Stats, trials)
	for i := 0; i < trials; i++ {
		st, err := Run(trialConfig(i, seqTab))
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		sequential[i] = st
	}

	parallel := make([]Stats, trials)
	errs := make([]error, trials)
	var wg sync.WaitGroup
	for i := 0; i < trials; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parallel[i], errs[i] = Run(trialConfig(i, parTab))
		}(i)
	}
	wg.Wait()
	for i := 0; i < trials; i++ {
		if errs[i] != nil {
			t.Fatalf("parallel trial %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(sequential[i], parallel[i]) {
			t.Fatalf("trial %d diverged:\nsequential %+v\nparallel   %+v",
				i, sequential[i], parallel[i])
		}
	}
}

// TestRemediationRecoversThroughput checks the remediation loop earns
// its keep: a fleet pinned to straggling Phis completes more jobs with
// remediation on than off, and fewer than a healthy fleet.
func TestRemediationRecoversThroughput(t *testing.T) {
	tab := mustTable(t)
	base := Config{
		Nodes:    32,
		Duration: 900 * vclock.Second,
		Profile:  "none",
		Load:     1.5, // saturate the fleet so completions measure capacity
		Prices:   tab,
	}
	run := func(cond string, remediate bool) Stats {
		cfg := base
		cfg.Condition, cfg.Remediate = cond, remediate
		st, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	degraded := run("phi-straggler", false)
	remediated := run("phi-straggler", true)
	healthy := run(ConditionHealthy, false)
	if !(degraded.Completed < remediated.Completed && remediated.Completed <= healthy.Completed) {
		t.Errorf("want degraded < remediated <= healthy completions, got %d / %d / %d",
			degraded.Completed, remediated.Completed, healthy.Completed)
	}
}

// TestHardFailuresScaleWithMTBF checks the failure process tracks the
// profile catalog: shorter MTBF means strictly more failures on a big
// fleet, and the "none" profile means zero.
func TestHardFailuresScaleWithMTBF(t *testing.T) {
	tab := mustTable(t)
	prev := -1
	for _, name := range ProfileNames() {
		st, err := Run(Config{
			Nodes:     256,
			Duration:  1800 * vclock.Second,
			Profile:   name,
			Condition: ConditionHealthy,
			Remediate: true,
			Prices:    tab,
		})
		if err != nil {
			t.Fatal(err)
		}
		if name == "none" && st.HardFailures != 0 {
			t.Errorf("profile none struck %d failures", st.HardFailures)
		}
		if st.HardFailures < prev {
			t.Errorf("profile %s struck %d failures, fewer than the longer-MTBF predecessor's %d",
				name, st.HardFailures, prev)
		}
		prev = st.HardFailures
	}
}

// TestSchedulerPolicies checks every cataloged policy runs, places the
// same offered load, and stays deterministic.
func TestSchedulerPolicies(t *testing.T) {
	tab := mustTable(t)
	for _, policy := range PolicyNames() {
		cfg := Config{
			Nodes:     16,
			Duration:  300 * vclock.Second,
			Scheduler: policy,
			Condition: ConditionHealthy,
			Profile:   "none",
			Prices:    tab,
		}
		a, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: repeated runs differ", policy)
		}
		if a.Completed == 0 || a.Utilization <= 0 {
			t.Errorf("%s: no work done: %+v", policy, a)
		}
	}
}

// TestConfigValidation walks the rejection surface.
func TestConfigValidation(t *testing.T) {
	tab := mustTable(t)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no prices", Config{}},
		{"too many nodes", Config{Nodes: MaxNodes + 1, Prices: tab}},
		{"negative nodes", Config{Nodes: -4, Prices: tab}},
		{"bad profile", Config{Profile: "immortal", Prices: tab}},
		{"bad scheduler", Config{Scheduler: "clairvoyant", Prices: tab}},
		{"bad condition", Config{Condition: "degraded", Prices: tab}},
		{"negative duration", Config{Duration: -vclock.Second, Prices: tab}},
		{"huge duration", Config{Duration: MaxDuration + vclock.Second, Prices: tab}},
		{"bad health period", Config{HealthEvery: -vclock.Second, Prices: tab}},
		{"bad load", Config{Load: -1, Prices: tab}},
	}
	for _, tc := range cases {
		if _, err := Run(tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestTableForModelMemoizes checks the per-model memo returns the same
// table pointer for repeated lookups.
func TestTableForModelMemoizes(t *testing.T) {
	a, err := TableForModel(core.DefaultModel(), machine.NewNode(), 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TableForModel(core.DefaultModel(), machine.NewNode(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("repeated TableForModel lookups built distinct tables")
	}
}

// TestCatalogs spot-checks the profile and policy catalogs.
func TestCatalogs(t *testing.T) {
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("unknown profile accepted")
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
	if def, err := PolicyByName(DefaultScheduler); err != nil || def.Name != DefaultScheduler {
		t.Errorf("default scheduler %q not in catalog: %v", DefaultScheduler, err)
	}
	if def, err := ProfileByName(DefaultProfile); err != nil || def.Name != DefaultProfile {
		t.Errorf("default profile %q not in catalog: %v", DefaultProfile, err)
	}
}
