package main

import (
	"bytes"
	"fmt"
	"math/bits"
	"net/http"
	"os"
	"time"

	"maia/internal/harness"
	"maia/internal/maiad"
)

// Traffic classes: each call's latency is reported under one of these.
const (
	classJobs   = iota // POST /v1/jobs
	classFleet         // POST /v1/fleet
	classLookup        // GET /v1/jobs/{key}
)

// Serve-workload shape. The rates were picked on a 2-CPU machine so
// that neither fixed-rate window builds a backlog (see README.md).
const (
	// hotRate is serve-hot's fixed offered load, in requests/s.
	hotRate = 2000
	// hotWindow is the sample count of one p99 window (see windowedQuantile).
	hotWindow = 1000
	// hotLimitMS is the p99 latency a ladder rung must stay under.
	hotLimitMS = 25.0
	// coldPlainRate and coldFleetRate are serve-cold's fixed offered
	// loads, in requests/s, of plain jobs and then of fleet jobs.
	coldPlainRate = 100
	coldFleetRate = 200
	// coldWindow is the sample count of one cold p99 window.
	coldWindow = 200
	// coldVerifyFrac is the share of cold answers re-rendered in-process
	// and byte-compared after the window closes.
	coldVerifyFrac = 0.125
)

// hotLadder is the fixed rate ladder hot_max_rps climbs, in requests/s.
var hotLadder = []float64{500, 1000, 2000, 4000, 6000}

// coldExperiments are the full-mode experiments cold plain jobs run. A
// fault plan does not enter their computations, so re-keying them by
// fault plan and seed mints a distinct content address per job while
// the closed-form fast paths stay engaged.
var coldExperiments = []string{"fig5", "fig20", "ext-stride"}

// coldFaultPlan is the catalog plan cold plain jobs are re-seeded under.
const coldFaultPlan = "phi-straggler"

// coldFleetExperiment is the scenario cold fleet jobs re-seed: the
// quick recovery figure capped at eight nodes.
const coldFleetExperiment = "ext-fleet-recovery"

// coldWarmups is how many of coldSpecs' leading specs are warm-ups: one
// per cold experiment and one fleet job.
var coldWarmups = len(coldExperiments) + 1

// coldSeed mints the i-th never-seen seed (i ≥ 1) of workload seed s:
// the workload seed sits in the high 32 bits and the counter in the low
// 32. One workload seed therefore always mints the same sequence, two
// workload seeds below 2^32-1 never mint the same seed, and no minted
// seed is 1, the fleet default that would normalize to the golden key.
func coldSeed(s uint64, i uint32) uint64 { return (s+1)<<32 | uint64(i) }

// coldSpecs returns the cold job specs of workload seed s: the
// warm-ups, then plain jobs cycling through coldExperiments, then fleet
// jobs. The experiments' render costs differ several-fold, so the mix
// and its order are fixed, and the fleet jobs get a stream of their own
// rather than queueing behind a varying number of slow plain ones: a
// drifting mix would move the percentiles more than a code change does.
// The seed mints the content addresses, and every spec has a distinct
// one.
func coldSpecs(s uint64, plain, fleet int) []harness.JobSpec {
	specs := make([]harness.JobSpec, coldWarmups+plain+fleet)
	for k := range specs {
		seed := coldSeed(s, uint32(k+1))
		switch j := k - coldWarmups; {
		case k < len(coldExperiments):
			specs[k] = harness.JobSpec{Experiment: coldExperiments[k], FaultPlan: coldFaultPlan, Seed: seed}
		case j >= 0 && j < plain:
			specs[k] = harness.JobSpec{Experiment: coldExperiments[j%len(coldExperiments)],
				FaultPlan: coldFaultPlan, Seed: seed}
		default:
			specs[k] = harness.JobSpec{Experiment: coldFleetExperiment, Quick: true,
				Seed: seed, Fleet: &harness.FleetSpec{Nodes: 8}}
		}
	}
	return specs
}

// hotPool returns one call per way to fetch a golden-seeded result: the
// default spec of every experiment POSTed to its endpoint, and a GET of
// its content address. Each answer must be a cache hit whose output is
// the golden byte for byte.
func hotPool(s *suiteBench) []call {
	var pool []call
	for i, e := range s.exps {
		spec := harness.JobSpec{Experiment: e.ID}
		want := string(s.golden[i])
		id := e.ID
		check := func(jr *maiad.JobResponse) error {
			if jr.Cache != maiad.CacheHit {
				return fmt.Errorf("hot %s: cache %q, want hit", id, jr.Cache)
			}
			if jr.Output != want {
				return fmt.Errorf("hot %s: output differs from the golden", id)
			}
			return nil
		}
		path, class := "/v1/jobs", classJobs
		if e.Section == "fleet" {
			path, class = "/v1/fleet", classFleet
		}
		pool = append(pool,
			call{method: http.MethodPost, path: path, body: spec.MarshalCanonical(), class: class, check: check},
			call{method: http.MethodGet, path: "/v1/jobs/" + spec.Hash(), class: classLookup, check: check})
	}
	return pool
}

// pick draws n calls from pool with the run's seeded generator.
func (b *bench) pick(pool []call, n int) []call {
	calls := make([]call, n)
	for i := range calls {
		calls[i] = pool[b.rng.IntN(len(pool))]
	}
	return calls
}

// serveRun holds what the traced run reads back from a serve phase.
type serveRun struct {
	before, after maiad.Snapshot
	// clientJobsP50MS is the client-side p50 of POST /v1/jobs calls.
	clientJobsP50MS float64
	lagMS           []float64
	// rssMB is the daemon's peak RSS when the phase ended.
	rssMB float64
}

// account adds a schedule's calls to the run's totals.
func (b *bench) account(r loadResult) {
	b.count(len(r.outs), r.failures(), r.firstErr())
}

// hotPhase boots a fresh golden-seeded daemon and warms it, untimed,
// with every pool call once. It then offers cache hits at hotRate for
// 60% of d, and in the rest bisects hotLadder for its highest rung that
// meets hotLimitMS without a growing backlog.
func (b *bench) hotPhase(d time.Duration) (serveRun, error) {
	var sr serveRun
	dmn, err := startDaemon(b.maiad)
	if err != nil {
		return sr, err
	}
	defer dmn.stop()
	client, pool := newClient(), hotPool(b.suite)
	if sr.before, err = dmn.snapshot(); err != nil {
		return sr, err
	}
	for _, c := range pool {
		if err := do(client, dmn.base, c); err != nil {
			b.count(1, 1, err)
		}
	}

	fixed := d * 6 / 10
	res := openLoop(client, dmn.base, hotRate, b.pick(pool, int(hotRate*fixed.Seconds())))
	b.account(res)
	lat := res.latenciesMS(-1)
	b.setLayer("hot_p99_ms", windowedQuantile(lat, hotWindow, 0.99), "ms")
	b.setE2E("hot_p50_ms", median(lat), "ms")
	sr.clientJobsP50MS = median(res.latenciesMS(classJobs))
	sr.lagMS = lagsMS(res)

	rung := (d - fixed) / time.Duration(bits.Len(uint(len(hotLadder))))
	lo, hi := -1, len(hotLadder)
	var best loadResult
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		rate := hotLadder[mid]
		r := openLoop(client, dmn.base, rate, b.pick(pool, int(rate*rung.Seconds())))
		b.account(r)
		// Four windows per rung, so one stall does not fail it.
		p99 := windowedQuantile(r.latenciesMS(-1), len(r.outs)/4, 0.99)
		pass := r.failures() == 0 && float64(r.backlog) <= rate/100 && p99 <= hotLimitMS
		fmt.Fprintf(os.Stderr, "perfbench: ladder rung %.0f/s: %.1f/s achieved, p99 %.2f ms, backlog %d, pass %v\n",
			rate, r.achievedRPS(), p99, r.backlog, pass)
		if pass {
			lo, best = mid, r
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return sr, fmt.Errorf("serve-hot: no ladder rung kept p99 under %.1f ms", hotLimitMS)
	}
	b.setE2E("hot_max_rps", best.achievedRPS(), "1/s")

	if sr.after, err = dmn.snapshot(); err != nil {
		return sr, err
	}
	if runs := sr.after.EngineRuns - sr.before.EngineRuns; runs != 0 {
		b.count(1, 1, fmt.Errorf("serve-hot: %d engine runs, want 0", runs))
	}
	if sr.rssMB, err = dmn.rssMB(); err != nil {
		return sr, err
	}
	b.setE2E("rss_mb", sr.rssMB, "MB")
	if err := dmn.stop(); err != nil {
		b.count(1, 1, err)
	}
	return sr, nil
}

// coldPhase boots a fresh daemon, sends it the warm-up jobs untimed —
// one per cold experiment pays the daemon's process-wide memos (the
// fleet price table, the stride derates) — and then never-seen jobs:
// fleet ones at coldFleetRate for half of d, plain ones at
// coldPlainRate for the other half. It checks that every job ran the engine
// exactly once and none hit, and re-renders a seeded sample of the
// answers in-process to byte-compare them.
func (b *bench) coldPhase(d time.Duration) (serveRun, error) {
	var sr serveRun
	dmn, err := startDaemon(b.maiad)
	if err != nil {
		return sr, err
	}
	defer dmn.stop()
	client := newClient()
	nPlain := int(coldPlainRate * d.Seconds() / 2)
	specs := coldSpecs(b.seed, nPlain, int(coldFleetRate*d.Seconds()/2))
	calls := make([]call, len(specs))
	outputs := make([][]byte, len(specs)) // the answers of the sampled calls
	var sampled []int
	for i, spec := range specs {
		i, key := i, spec.Hash()
		keep := i < coldWarmups || b.rng.Float64() < coldVerifyFrac
		if keep {
			sampled = append(sampled, i)
		}
		path, class := "/v1/jobs", classJobs
		if spec.Fleet != nil {
			path, class = "/v1/fleet", classFleet
		}
		calls[i] = call{method: http.MethodPost, path: path, body: spec.MarshalCanonical(), class: class,
			check: func(jr *maiad.JobResponse) error {
				if jr.Cache != maiad.CacheMiss {
					return fmt.Errorf("cold %s: cache %q, want miss", key[:12], jr.Cache)
				}
				if jr.Key != key {
					return fmt.Errorf("cold: key %s, want %s", jr.Key, key)
				}
				if keep {
					outputs[i] = []byte(jr.Output)
				}
				return nil
			}}
	}
	if sr.before, err = dmn.snapshot(); err != nil {
		return sr, err
	}
	for _, c := range calls[:coldWarmups] {
		if err := do(client, dmn.base, c); err != nil {
			b.count(1, 1, err)
		}
	}

	// Fleet jobs first, while the daemon's heap holds none of the plain
	// jobs' garbage.
	res := openLoop(client, dmn.base, coldFleetRate, calls[coldWarmups+nPlain:])
	b.account(res)
	b.setLayer("fleet_p99_ms", windowedQuantile(res.latenciesMS(classFleet), coldWindow, 0.99), "ms")
	sr.lagMS = lagsMS(res)
	res = openLoop(client, dmn.base, coldPlainRate, calls[coldWarmups:coldWarmups+nPlain])
	b.account(res)
	plain := res.latenciesMS(classJobs)
	b.setLayer("cold_p99_ms", windowedQuantile(plain, coldWindow, 0.99), "ms")
	sr.clientJobsP50MS = median(plain)
	b.setE2E("cold_p50_ms", sr.clientJobsP50MS, "ms")
	sr.lagMS = append(sr.lagMS, lagsMS(res)...)

	if sr.after, err = dmn.snapshot(); err != nil {
		return sr, err
	}
	if runs := sr.after.EngineRuns - sr.before.EngineRuns; runs != int64(len(calls)) {
		b.count(1, 1, fmt.Errorf("serve-cold: %d engine runs for %d jobs", runs, len(calls)))
	}
	if hits := sr.after.CacheHits - sr.before.CacheHits; hits != 0 {
		b.count(1, 1, fmt.Errorf("serve-cold: %d cache hits, want 0", hits))
	}
	if sr.rssMB, err = dmn.rssMB(); err != nil {
		return sr, err
	}
	if err := dmn.stop(); err != nil {
		b.count(1, 1, err)
	}

	reg := harness.Paper()
	for _, i := range sampled {
		if outputs[i] == nil {
			continue // the call failed and was already counted
		}
		err := rerender(reg, specs[i], outputs[i])
		b.count(1, boolInt(err != nil), err)
	}
	return sr, nil
}

// rerender renders spec in-process and compares it with the daemon's
// answer.
func rerender(reg *harness.Registry, spec harness.JobSpec, got []byte) error {
	exp, ok := reg.ByID(spec.Experiment)
	if !ok {
		return fmt.Errorf("rerender: unknown experiment %q", spec.Experiment)
	}
	env, err := spec.Env()
	if err != nil {
		return err
	}
	want, err := harness.RenderBytes(exp, env)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("cold %s seed %d: daemon output differs from the in-process render", spec.Experiment, spec.Seed)
	}
	return nil
}

// lagsMS returns the generator's dispatch lags in milliseconds.
func lagsMS(r loadResult) []float64 {
	xs := make([]float64, len(r.outs))
	for i, o := range r.outs {
		xs[i] = ms(o.lag)
	}
	return xs
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
