package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"maia/internal/apps/overflow"
	"maia/internal/harness"
	"maia/internal/machine"
	"maia/internal/maiad"
	"maia/internal/memsim"
	"maia/internal/npb"
	"maia/internal/pcie"
	"maia/internal/simfault"
	"maia/internal/simfleet"
	"maia/internal/simmpi"
	"maia/internal/simomp"
	"maia/internal/vclock"
)

// The traced run times calls into each module's public functions from
// the benchmark's own code, over the parameter grids the experiments
// use. Each timing is the median of layerReps repetitions of the whole
// grid; allocation counts come from one repetition.
const layerReps = 5

// layer is one per-layer timing: the metric it reports and the grid it
// runs. mallocs, when non-empty, also reports heap objects per grid.
type layer struct {
	name    string
	mallocs string
	grid    func(env harness.Env) error
}

// layerCatalogue lists every timed grid. The names are the per-layer
// metric names; harness.render.<id>_ms, the spec and maiad micro-timings
// and the daemon-side figures are added by traceLayers.
func layerCatalogue() []layer {
	return []layer{
		{name: "memsim.latency_curve_ms", grid: func(env harness.Env) error {
			memsim.LatencyCurve(env.Node.HostProc, 4<<10, 64<<20)
			memsim.LatencyCurve(env.Node.PhiProc, 4<<10, 64<<20)
			return nil
		}},
		{name: "memsim.bandwidth_curve_ms", grid: func(env harness.Env) error {
			memsim.BandwidthCurve(env.Node.HostProc, 4<<10, 64<<20)
			memsim.BandwidthCurve(env.Node.PhiProc, 4<<10, 64<<20)
			return nil
		}},
		// StrideDerate memoizes; this is the unmemoized grid behind it.
		{name: "memsim.strided_ms", grid: func(env harness.Env) error {
			for _, proc := range []machine.ProcessorSpec{machine.SandyBridge(), machine.XeonPhi5110P()} {
				for _, stride := range []int{8, 16, 32, 64} {
					memsim.StridedBandwidth(memsim.MustHierarchy(proc), proc, 32<<20, stride, 8)
				}
			}
			return nil
		}},
		{name: "memsim.stream_ms", grid: func(env harness.Env) error {
			cfg := memsim.DefaultStreamConfig()
			memsim.StreamCurve(env.Node, machine.Host, []int{1, 2, 4, 8, 12, 16}, cfg)
			memsim.StreamCurve(env.Node, machine.Phi0, []int{1, 15, 30, 59, 90, 118, 150, 177, 200, 236}, cfg)
			return nil
		}},
		{name: "simmpi.collective_ms", mallocs: "simmpi.collective_mallocs", grid: func(env harness.Env) error {
			for _, p := range collectiveGrid() {
				if _, err := simmpi.CollectiveTime(p.cfg(), p.kind, p.msg, 2); err != nil {
					return err
				}
			}
			return nil
		}},
		{name: "simmpi.ring_ms", grid: func(env harness.Env) error {
			cfgs := []simmpi.Config{{Ranks: simmpi.HostPlacement(16, 1)}}
			for _, c := range [][2]int{{59, 1}, {118, 2}, {177, 3}, {236, 4}} {
				cfgs = append(cfgs, simmpi.Config{Ranks: simmpi.PhiPlacement(machine.Phi0, c[0], c[1])})
			}
			for _, m := range sizesUpTo(1 << 20) {
				for _, cfg := range cfgs {
					if _, err := simmpi.RingBandwidth(cfg, m, 3); err != nil {
						return err
					}
				}
			}
			return nil
		}},
		{name: "simmpi.goroutine_ms", grid: func(env harness.Env) error {
			for _, p := range goroutineGrid() {
				if _, err := simmpi.CollectiveTime(p.cfg(), p.kind, p.msg, 2, p.opts...); err != nil {
					return err
				}
			}
			return nil
		}},
		{name: "npb.mpi_run_ms", grid: func(env harness.Env) error {
			run := func(b npb.Benchmark, phiRanks []int) error {
				if _, err := npb.MPIRun(env.Model, b, npb.ClassC, machine.Host, 16, env.Node); err != nil {
					return err
				}
				for _, r := range phiRanks {
					_, err := npb.MPIRun(env.Model, b, npb.ClassC, machine.Phi0, r, env.Node)
					if err != nil && !errors.Is(err, npb.ErrOOM) {
						return err
					}
				}
				return nil
			}
			for _, b := range []npb.Benchmark{npb.CG, npb.MG, npb.FT, npb.LU} {
				if err := run(b, []int{64, 128}); err != nil {
					return err
				}
			}
			for _, b := range []npb.Benchmark{npb.BT, npb.SP} {
				if err := run(b, []int{64, 121, 169, 225}); err != nil {
					return err
				}
			}
			return nil
		}},
		{name: "npb.omp_ms", grid: func(env harness.Env) error {
			for _, b := range npb.Fig19Benchmarks() {
				if _, _, err := npb.OMPThreadSweep(env.Model, b, npb.ClassC, env.Node); err != nil {
					return err
				}
			}
			return nil
		}},
		{name: "npb.mg_collapse_ms", mallocs: "npb.mg_collapse_mallocs", grid: func(env harness.Env) error {
			parts := []machine.Partition{machine.HostPartition(env.Node, 1)}
			for _, th := range []int{59, 60, 118, 120, 177, 180, 236, 240} {
				parts = append(parts, machine.PhiThreadsPartition(env.Node, machine.Phi0, th))
			}
			for _, part := range parts {
				for _, collapse := range []bool{false, true} {
					if _, err := npb.MGCollapseGflops(env.Model, npb.ClassC, part, collapse); err != nil {
						return err
					}
				}
			}
			return nil
		}},
		{name: "npb.rack_run_ms", grid: func(env harness.Env) error {
			for _, b := range []npb.Benchmark{npb.CG, npb.MG, npb.FT} {
				for _, nodes := range rackNodes {
					if _, err := npb.RackRun(env.Model, b, npb.ClassC, nodes, 16, env.Node); err != nil {
						return err
					}
				}
			}
			return nil
		}},
		{name: "overflow.fig22_ms", grid: func(env harness.Env) error {
			_, _, err := overflow.Fig22(env.Model, env.Node)
			return err
		}},
		{name: "overflow.symmetric_ms", grid: func(env harness.Env) error {
			for _, pc := range []overflow.Combo{{Ranks: 4, Threads: 14}, {Ranks: 8, Threads: 14},
				{Ranks: 4, Threads: 28}, {Ranks: 8, Threads: 28}} {
				for _, sw := range []pcie.Software{pcie.PreUpdate, pcie.PostUpdate} {
					_, err := overflow.SymmetricStepTime(env.Model, env.Node, overflow.SymmetricConfig{
						HostCombo: overflow.Combo{Ranks: 16, Threads: 1}, PhiCombo: pc, Software: sw})
					if err != nil {
						return err
					}
				}
			}
			return nil
		}},
		{name: "overflow.rack_ms", grid: func(env harness.Env) error {
			for _, nodes := range rackNodes {
				if _, err := overflow.RackStepTime(env.Model, env.Node, overflow.RackHostOnly(nodes)); err != nil {
					return err
				}
				sym := overflow.RackConfig{Nodes: nodes,
					HostCombo: overflow.Combo{Ranks: 16, Threads: 1}, PhiCombo: overflow.Combo{Ranks: 8, Threads: 28}}
				if _, err := overflow.RackStepTime(env.Model, env.Node, sym); err != nil {
					return err
				}
			}
			return nil
		}},
		{name: "simomp.sync_ms", grid: func(env harness.Env) error {
			host, phi := ompRuntimes(env)
			for _, c := range simomp.Constructs() {
				simomp.MeasureSyncOverhead(host, c)
				simomp.MeasureSyncOverhead(phi, c)
			}
			return nil
		}},
		{name: "simomp.sched_ms", grid: func(env harness.Env) error {
			host, phi := ompRuntimes(env)
			for _, s := range simomp.Schedules() {
				for _, chunk := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
					simomp.MeasureSchedOverhead(host, s, chunk)
					simomp.MeasureSchedOverhead(phi, s, chunk)
				}
			}
			return nil
		}},
		// Figures 25-27 each price the three variants.
		{name: "offload.mg_offload_ms", grid: func(env harness.Env) error {
			for fig := 0; fig < 3; fig++ {
				for _, v := range npb.MGOffloadVariants() {
					if _, err := npb.MGOffload(env.Model, npb.ClassC, env.Node, v); err != nil {
						return err
					}
				}
			}
			return nil
		}},
		// TableForModel memoizes; this is the build behind it.
		{name: "simfleet.price_table_ms", grid: func(env harness.Env) error {
			_, err := simfleet.NewPriceTable(env.Model, env.Node, 1)
			return err
		}},
	}
}

// layerExtras are the per-layer metrics traceLayers measures besides
// the layer catalogue's grids and the per-experiment renders.
var layerExtras = []metricDef{
	{"simmpi.replay_engaged_ratio", "ratio"},
	{"simfleet.run_ms", "ms"},
	{"simfleet.run_mallocs", "count"},
	{"simfleet.ns_per_arrival", "ns"},
	{"harness.spec_normalize_us", "us"},
	{"harness.spec_hash_us", "us"},
	{"harness.spec_env_us", "us"},
	{"maiad.seed_ms", "ms"},
	{"maiad.handler_hit_us", "us"},
	{"maiad.cache_put_ns", "ns"},
	{"maiad.cache_get_ns", "ns"},
	{"maiad.encode_us", "us"},
	{"maiad.server_jobs_p50_us", "us"},
	{"maiad.server_jobs_p99_us", "us"},
	{"maiad.server_fleet_p99_us", "us"},
	{"maiad.engine_runs", "count"},
	{"maiad.hit_ratio", "ratio"},
	{"maiad.cache_entries", "count"},
	{"maiad.transport_p50_us", "us"},
	{"maiad.cold_peak_rss_mb", "MB"},
	{"hot_p99_ms", "ms"},
	{"cold_p99_ms", "ms"},
	{"fleet_p99_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// perLayerMetrics lists every metric a traced run over exps reports.
func perLayerMetrics(exps []harness.Experiment) []metricDef {
	var defs []metricDef
	for _, l := range layerCatalogue() {
		defs = append(defs, metricDef{l.name, "ms"})
		if l.mallocs != "" {
			defs = append(defs, metricDef{l.mallocs, "count"})
		}
	}
	defs = append(defs, layerExtras...)
	for _, e := range exps {
		defs = append(defs, metricDef{"harness.render." + e.ID + "_ms", "ms"})
	}
	return defs
}

// rackNodes is the ext-rack experiments' default node sweep.
var rackNodes = []int{2, 8, 32, 128}

// sizesUpTo is the experiments' message-size sweep: powers of four up
// to max, then max itself.
func sizesUpTo(max int) []int {
	var out []int
	for s := 1; s <= max; s *= 4 {
		out = append(out, s)
	}
	if out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

// mpiPoint is one CollectiveTime call of a grid.
type mpiPoint struct {
	ranks []simmpi.Location
	kind  simmpi.CollectiveKind
	msg   int
	opts  []simmpi.Option
}

func (p mpiPoint) cfg() simmpi.Config { return simmpi.Config{Ranks: p.ranks} }

// collectiveGrid is Figures 11-14: each collective over its size sweep
// on host(16) and the three Phi placements, skipping Figure 14's OOM
// cells.
func collectiveGrid() []mpiPoint {
	var grid []mpiPoint
	sweeps := []struct {
		kind simmpi.CollectiveKind
		max  int
	}{{simmpi.BcastKind, 256 << 10}, {simmpi.AllreduceKind, 256 << 10},
		{simmpi.AllgatherKind, 8 << 10}, {simmpi.AlltoallKind, 256 << 10}}
	node := machine.NewNode()
	for _, s := range sweeps {
		for _, m := range sizesUpTo(s.max) {
			grid = append(grid, mpiPoint{ranks: simmpi.HostPlacement(16, 1), kind: s.kind, msg: m})
			for _, c := range [][2]int{{64, 1}, {128, 2}, {236, 4}} {
				if s.kind == simmpi.AlltoallKind && !simmpi.AlltoallFeasible(machine.Phi0, node, c[0], m) {
					continue
				}
				grid = append(grid, mpiPoint{ranks: simmpi.PhiPlacement(machine.Phi0, c[0], c[1]), kind: s.kind, msg: m})
			}
		}
	}
	return grid
}

// goroutineGrid is the worlds the closed-form replays refuse: the
// heterogeneous host 4 + Phi 4 communicator of ext-fault-fabric, healthy
// and under the lossy-pcie plan, for every collective at 64 KB.
func goroutineGrid() []mpiPoint {
	var grid []mpiPoint
	mixed := func() []simmpi.Location {
		return append(simmpi.HostPlacement(4, 1), simmpi.PhiPlacement(machine.Phi0, 4, 1)...)
	}
	for _, kind := range []simmpi.CollectiveKind{simmpi.BcastKind, simmpi.AllreduceKind,
		simmpi.AllgatherKind, simmpi.AlltoallKind} {
		grid = append(grid,
			mpiPoint{ranks: mixed(), kind: kind, msg: 64 << 10},
			mpiPoint{ranks: mixed(), kind: kind, msg: 64 << 10,
				opts: []simmpi.Option{simmpi.WithFaultPlan(simfault.LossyPCIe())}})
	}
	return grid
}

// replayEngagedRatio is the share of the collective and goroutine grid
// points World.RepeatOp prices in closed form.
func replayEngagedRatio() (float64, error) {
	grid := append(collectiveGrid(), goroutineGrid()...)
	ok := 0
	for _, p := range grid {
		cfg := p.cfg()
		cfg.SizeOnlyPayloads = true // as CollectiveTime runs it
		w, err := simmpi.NewWorld(cfg, p.opts...)
		if err != nil {
			return 0, err
		}
		if _, engaged := w.RepeatOp(p.kind, p.msg, 2); engaged {
			ok++
		}
	}
	return float64(ok) / float64(len(grid)), nil
}

// ompRuntimes builds Figures 15 and 16's host(16) and Phi(236) runtimes.
func ompRuntimes(env harness.Env) (host, phi *simomp.Runtime) {
	return simomp.New(machine.HostPartition(env.Node, 1)),
		simomp.New(machine.PhiThreadsPartition(env.Node, machine.Phi0, 236))
}

// fleetConfigs are the simfleet.Run configurations behind the two fleet
// goldens, in the order the experiments run them.
func fleetConfigs(prices *simfleet.PriceTable) []simfleet.Config {
	var cfgs []simfleet.Config
	add := func(nodes int, d vclock.Time, profile, condition string, remediate bool, load float64) {
		cfgs = append(cfgs, simfleet.Config{Nodes: nodes, Duration: d, Profile: profile,
			Condition: condition, Remediate: remediate, Load: load, Prices: prices})
	}
	profiles := simfleet.ProfileNames()
	for _, p := range profiles {
		add(simfleet.DefaultNodes, 1200*vclock.Second, p, "", true, 0)
	}
	add(simfleet.DefaultNodes, 1200*vclock.Second, profiles[len(profiles)-1], "", false, 0)
	add(64, 900*vclock.Second, "none", simfleet.ConditionHealthy, false, 1.5)
	for _, c := range []string{"phi-straggler", "thermal-throttle", "lossy-pcie", "phi0-down"} {
		add(64, 900*vclock.Second, "none", c, false, 1.5)
		add(64, 900*vclock.Second, "none", c, true, 1.5)
	}
	add(1, 600*vclock.Second, "none", "phi-straggler", true, 0)
	for _, n := range []int{8, 64, 512} {
		add(n, 600*vclock.Second, "steady", "", true, 0)
	}
	return cfgs
}

// timeGrid runs grid layerReps times and returns the median wall time
// and the heap objects one repetition allocates.
func timeGrid(env harness.Env, grid func(harness.Env) error) (time.Duration, uint64, error) {
	walls := make([]float64, layerReps)
	var mallocs uint64
	for i := range walls {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		if err := grid(env); err != nil {
			return 0, 0, err
		}
		walls[i] = float64(time.Since(start))
		runtime.ReadMemStats(&m1)
		mallocs = m1.Mallocs - m0.Mallocs
	}
	return time.Duration(median(walls)), mallocs, nil
}

// perCall returns the median over layerReps rounds of fn's mean wall
// time per call, each round calling fn n times.
func perCall(n int, fn func(i int) error) (time.Duration, error) {
	rounds := make([]float64, layerReps)
	for r := range rounds {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		rounds[r] = float64(time.Since(start)) / float64(n)
	}
	return time.Duration(median(rounds)), nil
}

// traceLayers measures every per-layer metric. The daemon-side figures
// come from the serve-cold phase on that workload and from the
// serve-hot phase otherwise.
func (b *bench) traceLayers(hot, cold serveRun) error {
	env := harness.DefaultEnv()
	for _, l := range layerCatalogue() {
		wall, mallocs, err := timeGrid(env, l.grid)
		if err != nil {
			return fmt.Errorf("%s: %w", l.name, err)
		}
		b.setLayer(l.name, ms(wall), "ms")
		if l.mallocs != "" {
			b.setLayer(l.mallocs, float64(mallocs), "count")
		}
	}
	ratio, err := replayEngagedRatio()
	if err != nil {
		return err
	}
	b.setLayer("simmpi.replay_engaged_ratio", ratio, "ratio")

	prices, err := simfleet.TableForModel(env.Model, env.Node, 1)
	if err != nil {
		return err
	}
	arrivals := 0
	wall, mallocs, err := timeGrid(env, func(harness.Env) error {
		arrivals = 0
		for _, cfg := range fleetConfigs(prices) {
			st, err := simfleet.Run(cfg)
			if err != nil {
				return err
			}
			arrivals += st.Arrivals
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("simfleet.run_ms: %w", err)
	}
	b.setLayer("simfleet.run_ms", ms(wall), "ms")
	b.setLayer("simfleet.run_mallocs", float64(mallocs), "count")
	b.setLayer("simfleet.ns_per_arrival", float64(wall)/float64(arrivals), "ns")

	if err := b.traceRender(env); err != nil {
		return err
	}
	if err := b.traceSpecs(); err != nil {
		return err
	}
	if err := b.traceMaiad(); err != nil {
		return err
	}
	srv := hot
	if b.workload == "serve-cold" {
		srv = cold
	}
	b.traceServer(srv)
	b.setLayer("maiad.cold_peak_rss_mb", cold.rssMB, "MB")
	return nil
}

// traceRender times each experiment's render on its own and reports the
// traced rep's wall against the untraced suite phase's as overhead.
func (b *bench) traceRender(env harness.Env) error {
	s := b.suite
	walls := make([][]float64, len(s.exps))
	reps := make([]float64, layerReps)
	for r := range reps {
		start := time.Now()
		for i, e := range s.exps {
			t0 := time.Now()
			out, err := harness.RenderBytes(e, env)
			walls[i] = append(walls[i], ms(time.Since(t0)))
			if err != nil {
				return err
			}
			var mismatch error
			if !bytes.Equal(out, s.golden[i]) {
				mismatch = fmt.Errorf("traced render of %s differs from its golden", e.ID)
			}
			b.count(1, boolInt(mismatch != nil), mismatch)
		}
		reps[r] = ms(time.Since(start))
	}
	for i, e := range s.exps {
		b.setLayer("harness.render."+e.ID+"_ms", median(walls[i]), "ms")
	}
	b.setLayer("trace.overhead_ms", median(reps)-1e3*b.e2e["suite_s"].Value, "ms")
	return nil
}

// traceSpecs times the spec pipeline maiad runs on every request over
// the default spec of every experiment.
func (b *bench) traceSpecs() error {
	reg := harness.Paper()
	var specs []harness.JobSpec
	for _, e := range b.suite.exps {
		specs = append(specs, harness.JobSpec{Experiment: e.ID})
	}
	n := len(specs)
	norm, err := perCall(n, func(i int) error {
		if err := specs[i].Validate(reg); err != nil {
			return err
		}
		specs[i] = specs[i].Normalize()
		return nil
	})
	if err != nil {
		return err
	}
	hash, _ := perCall(n, func(i int) error { specs[i].Hash(); return nil })
	envT, err := perCall(n, func(i int) error { _, err := specs[i].Env(); return err })
	if err != nil {
		return err
	}
	b.setLayer("harness.spec_normalize_us", us(norm), "us")
	b.setLayer("harness.spec_hash_us", us(hash), "us")
	b.setLayer("harness.spec_env_us", us(envT), "us")
	return nil
}

// traceMaiad times maiad's pieces in-process, with no network.
func (b *bench) traceMaiad() error {
	golden := harness.EmbeddedGolden()
	seed, err := perCall(1, func(int) error {
		_, err := maiad.NewCache().SeedFromGolden(harness.Paper(), golden)
		return err
	})
	if err != nil {
		return err
	}
	b.setLayer("maiad.seed_ms", ms(seed), "ms")

	srv, err := maiad.New(maiad.Config{Golden: golden, Workers: conns})
	if err != nil {
		return err
	}
	h := srv.Handler()
	pool := hotPool(b.suite)
	hit, err := perCall(len(pool), func(i int) error {
		c := pool[i]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, bytes.NewReader(c.body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process %s %s: status %d", c.method, c.path, rec.Code)
		}
		var jr maiad.JobResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &jr); err != nil {
			return err
		}
		return c.check(&jr)
	})
	if err != nil {
		return err
	}
	b.setLayer("maiad.handler_hit_us", us(hit), "us")

	const keys = 4096
	cache := maiad.NewCache()
	entry := maiad.Entry{Output: b.suite.golden[0]}
	names := make([]string, keys)
	for i, spec := range coldSpecs(b.seed, keys-coldWarmups, 0) {
		names[i] = spec.Hash()
	}
	put, _ := perCall(keys, func(i int) error { cache.Put(names[i], entry); return nil })
	get, _ := perCall(keys, func(i int) error {
		if _, ok := cache.Get(names[i]); !ok {
			return fmt.Errorf("cache lost key %s", names[i])
		}
		return nil
	})
	b.setLayer("maiad.cache_put_ns", float64(put), "ns")
	b.setLayer("maiad.cache_get_ns", float64(get), "ns")

	largest := 0
	for i, g := range b.suite.golden {
		if len(g) > len(b.suite.golden[largest]) {
			largest = i
		}
	}
	spec := harness.JobSpec{Experiment: b.suite.exps[largest].ID}.Normalize()
	resp := maiad.JobResponse{SchemaVersion: maiad.ResponseSchemaVersion, Key: spec.Hash(), Spec: spec,
		Cache: maiad.CacheHit, Seeded: true, Output: string(b.suite.golden[largest])}
	enc, err := perCall(64, func(int) error { return json.NewEncoder(&bytes.Buffer{}).Encode(resp) })
	if err != nil {
		return err
	}
	b.setLayer("maiad.encode_us", us(enc), "us")
	return nil
}

// traceServer reports the daemon's own view of a serve phase and the
// generator's health.
func (b *bench) traceServer(srv serveRun) {
	snap := srv.after
	b.setLayer("maiad.server_jobs_p50_us", float64(snap.Endpoints["jobs"].P50Ns)/1e3, "us")
	b.setLayer("maiad.server_jobs_p99_us", float64(snap.Endpoints["jobs"].P99Ns)/1e3, "us")
	b.setLayer("maiad.server_fleet_p99_us", float64(snap.Endpoints["fleet"].P99Ns)/1e3, "us")
	b.setLayer("maiad.engine_runs", float64(snap.EngineRuns-srv.before.EngineRuns), "count")
	hits := snap.CacheHits - srv.before.CacheHits
	misses := snap.CacheMisses - srv.before.CacheMisses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	b.setLayer("maiad.hit_ratio", ratio, "ratio")
	b.setLayer("maiad.cache_entries", float64(snap.CacheEntries), "count")
	b.setLayer("maiad.transport_p50_us", 1e3*srv.clientJobsP50MS-float64(snap.Endpoints["jobs"].P50Ns)/1e3, "us")
	b.setLayer("loadgen.lag_p99_ms", quantile(srv.lagMS, 0.99), "ms")
}
