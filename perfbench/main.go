// Command perfbench is the repository benchmark. It renders the whole
// experiment suite in-process and drives freshly booted maiad daemons
// with open-loop golden-hit and never-seen traffic, verifies every
// output it times, and prints one JSON result as its last line.
//
// Build cmd/maiad first, then run from the repository root:
//
//	perfbench --maiad PATH --workload suite|serve-hot|serve-cold --seed N --seconds S --trace 0|1
//
// perfbench/run.py does both. With --trace 0 the result carries the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics
// instead. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// workloads are the benchmark's workload names.
var workloads = []string{"suite", "serve-hot", "serve-cold"}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics every untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"suite_s", "s"},
	{"suite_p90_s", "s"},
	{"paper_s", "s"},
	{"fleet_s", "s"},
	{"suite_mallocs", "count"},
	{"hot_p50_ms", "ms"},
	{"hot_max_rps", "1/s"},
	{"cold_p50_ms", "ms"},
	{"rss_mb", "MB"},
}

// setupProbes is how many times a run sets up to report setup_s.
const setupProbes = 7

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's state.
type bench struct {
	workload string
	seed     uint64
	maiad    string
	rng      *rand.Rand
	suite    *suiteBench

	attempted, failed int
	e2e, layers       map[string]metric
}

// count adds operations to the run's totals; err, the first failure
// among them, goes to stderr.
func (b *bench) count(attempted, failed int, err error) {
	b.attempted += attempted
	b.failed += failed
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

func (b *bench) setE2E(name string, v float64, unit string) {
	b.e2e[name] = metric{v, unit}
}

func (b *bench) setLayer(name string, v float64, unit string) {
	b.layers[name] = metric{v, unit}
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == setupProbeFlag {
		start := time.Now()
		if _, err := suiteSetup(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(time.Since(start).Seconds())
		return
	}
	res, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run parses the flags, runs one benchmark run and returns its result.
func run(args []string) (result, error) {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := flags.String("workload", "", "workload to run: suite, serve-hot or serve-cold")
	seed := flags.Uint64("seed", 1, "workload seed (below 2^32-1)")
	seconds := flags.Int("seconds", 36, "seconds the run measures")
	trace := flags.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	maiadPath := flags.String("maiad", "", "path of the maiad binary")
	if err := flags.Parse(args); err != nil {
		return result{}, err
	}
	primary := slices.Index(workloads, *workload)
	switch {
	case primary < 0:
		return result{}, fmt.Errorf("unknown workload %q (want one of %v)", *workload, workloads)
	case *seed >= 1<<32-1:
		return result{}, fmt.Errorf("seed %d out of range", *seed)
	case *seconds < 1:
		return result{}, fmt.Errorf("--seconds %d: want at least 1", *seconds)
	case *trace != 0 && *trace != 1:
		return result{}, fmt.Errorf("--trace %d: want 0 or 1", *trace)
	case *maiadPath == "":
		return result{}, fmt.Errorf("--maiad is required")
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		maiad:    *maiadPath,
		rng:      rand.New(rand.NewPCG(*seed, 0x5eed)),
		e2e:      map[string]metric{},
		layers:   map[string]metric{},
	}

	// Set-up, several times, before anything is timed.
	var setups []float64
	if *workload == "suite" {
		var err error
		if setups, err = probeSuiteSetup(setupProbes); err != nil {
			return result{}, err
		}
	} else {
		for i := 0; i < setupProbes; i++ {
			d, err := startDaemon(b.maiad)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, secs(d.boot))
			if err := d.stop(); err != nil {
				return result{}, err
			}
		}
	}
	b.setE2E("setup_s", median(setups), "s")
	var err error
	if b.suite, err = suiteSetup(); err != nil {
		return result{}, err
	}

	// The named workload measures for half of the run and the other two
	// for a quarter each, so every run reports every end-to-end metric.
	total := time.Duration(*seconds) * time.Second
	share := [3]time.Duration{total / 4, total / 4, total / 4}
	share[primary] = total / 2
	if err := b.suitePhase(share[0]); err != nil {
		return result{}, err
	}
	// Each serve phase starts from a collected heap, and the generator's
	// own garbage is collected rarely, so that its collections barely
	// show in the latencies it times.
	gcPercent := debug.SetGCPercent(400)
	runtime.GC()
	hot, err := b.hotPhase(share[1])
	if err != nil {
		return result{}, err
	}
	runtime.GC()
	cold, err := b.coldPhase(share[2])
	if err != nil {
		return result{}, err
	}
	debug.SetGCPercent(gcPercent)

	metrics, want := b.e2e, endToEnd
	if *trace == 1 {
		if err := b.traceLayers(hot, cold); err != nil {
			return result{}, err
		}
		metrics, want = b.layers, perLayerMetrics(b.suite.exps)
	}
	if len(metrics) != len(want) {
		return result{}, fmt.Errorf("measured %d metrics, want %d", len(metrics), len(want))
	}
	for _, m := range want {
		if got, ok := metrics[m.name]; !ok || got.Unit != m.unit {
			return result{}, fmt.Errorf("metric %s (%s) was not measured", m.name, m.unit)
		}
	}
	return result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}, nil
}
