package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"maia/internal/harness"
)

// suiteBench is the suite workload's fixture: the registry's
// experiments in presentation order and each one's golden bytes.
type suiteBench struct {
	exps   []harness.Experiment
	golden [][]byte
	env    harness.Env
}

// newSuiteBench pairs exps with their snapshots in golden.
func newSuiteBench(exps []harness.Experiment, golden fs.FS) (*suiteBench, error) {
	s := &suiteBench{exps: exps, golden: make([][]byte, len(exps)), env: harness.DefaultEnv()}
	for i, e := range exps {
		b, err := fs.ReadFile(golden, harness.GoldenName(e.ID))
		if err != nil {
			return nil, fmt.Errorf("golden for %s: %w", e.ID, err)
		}
		s.golden[i] = b
	}
	return s, nil
}

// repStats is one suite rep's measurements.
type repStats struct {
	// wall is the whole rep; paper and fleet split the experiments'
	// own render walls into the 36 non-fleet and the 2 fleet ones.
	wall, paper, fleet time.Duration
	// mallocs counts heap objects allocated during the rep.
	mallocs uint64
	// mismatches counts experiments whose output differs from the golden.
	mismatches int
}

// rep renders every experiment sequentially into buf and byte-compares
// each output against its golden.
func (s *suiteBench) rep(buf *bytes.Buffer) (repStats, error) {
	var st repStats
	buf.Reset()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	results, err := harness.RunExperiments(buf, s.env, s.exps, 1)
	st.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	st.mallocs = m1.Mallocs - m0.Mallocs
	if err != nil {
		return st, err
	}
	out := buf.Bytes()
	for i, r := range results {
		if !bytes.Equal(out[:r.Bytes], s.golden[i]) {
			st.mismatches++
		}
		out = out[r.Bytes:]
		if s.exps[i].Section == "fleet" {
			st.fleet += r.Wall
		} else {
			st.paper += r.Wall
		}
	}
	return st, nil
}

// minSuiteReps is the fewest reps a suite phase measures, however
// short its window.
const minSuiteReps = 9

// suitePhase renders the suite repeatedly for d, at least minSuiteReps
// times, and records the suite metrics.
func (b *bench) suitePhase(d time.Duration) error {
	var buf bytes.Buffer
	var walls, papers, fleets, mallocs []float64
	deadline := time.Now().Add(d)
	for len(walls) < minSuiteReps || time.Now().Before(deadline) {
		st, err := b.suite.rep(&buf)
		if err != nil {
			return err
		}
		var mismatch error
		if st.mismatches > 0 {
			mismatch = fmt.Errorf("suite: %d experiments differ from their goldens", st.mismatches)
		}
		b.count(len(b.suite.exps), st.mismatches, mismatch)
		walls = append(walls, secs(st.wall))
		papers = append(papers, secs(st.paper))
		fleets = append(fleets, secs(st.fleet))
		mallocs = append(mallocs, float64(st.mallocs))
	}
	b.setE2E("suite_p90_s", quantile(walls, 0.9), "s")
	b.setE2E("suite_s", median(walls), "s")
	b.setE2E("paper_s", median(papers), "s")
	b.setE2E("fleet_s", median(fleets), "s")
	b.setE2E("suite_mallocs", mean(mallocs), "count")
	return nil
}

// suiteSetup is the suite workload's set-up: load the registry and the
// goldens, then one untimed warm-up rep, which pays the memoized price
// table and stride derate builds every maiabench invocation pays.
func suiteSetup() (*suiteBench, error) {
	s, err := newSuiteBench(harness.Paper().All(), harness.EmbeddedGolden())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	st, err := s.rep(&buf)
	if err != nil {
		return nil, err
	}
	if st.mismatches > 0 {
		return nil, fmt.Errorf("suite warm-up: %d experiments differ from their goldens", st.mismatches)
	}
	return s, nil
}

// setupProbeFlag runs suiteSetup in a fresh process and prints its
// seconds: the memos suiteSetup pays are per process.
const setupProbeFlag = "--setup-probe"

// probeSuiteSetup times suiteSetup in n fresh processes.
func probeSuiteSetup(n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var xs []float64
	for i := 0; i < n; i++ {
		out, err := exec.Command(self, setupProbeFlag).Output()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return nil, fmt.Errorf("setup probe output %q: %w", out, err)
		}
		xs = append(xs, x)
	}
	return xs, nil
}
