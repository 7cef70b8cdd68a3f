// Package maiad is the experiments-as-a-service control plane: a
// long-running HTTP/JSON server over the typed harness.Registry.
// Clients submit jobs as canonical JobSpecs — experiment ID, quick and
// rack-node shaping, fault plan and seed, model overrides — and the
// server answers from a content-addressed result cache keyed by the
// spec's SHA-256. The committed golden snapshots seed the cache at
// startup, identical in-flight jobs coalesce onto one engine execution,
// sweep batches ride the existing parallel experiment engine, and every
// endpoint feeds latency histograms and cache counters exposed at
// /metrics and /healthz.
//
// Endpoints:
//
//	POST /v1/jobs         run (or fetch) one JobSpec; ?trace=summary|chrome attaches simtrace output
//	POST /v1/sweeps       run a batch of JobSpecs through the parallel engine
//	POST /v1/fleet        run (or fetch) one fleet-section JobSpec (schema v2 fleet block)
//	GET  /v1/jobs/{key}   fetch a result by content address (404 on cold keys)
//	GET  /v1/fleet/{key}  fetch a fleet result by content address
//	GET  /v1/experiments  list the registry with each experiment's default job key
//	GET  /metrics         Prometheus text (or ?format=json snapshot)
//	GET  /healthz         liveness, uptime, jobs in flight
//
// Fleet jobs (experiments in the registry's "fleet" section, with or
// without a v2 fleet block) route exclusively through /v1/fleet; they
// share the same content-addressed cache, coalescer, and worker pool as
// plain jobs but report their latency under their own endpoint labels.
package maiad

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"runtime"
	"time"

	"maia/internal/harness"
	"maia/internal/simtrace"
)

// ResponseSchemaVersion is the maiad HTTP response wire version.
const ResponseSchemaVersion = 1

// The cache-status values a JobResponse reports.
const (
	// CacheHit: answered from the content-addressed store.
	CacheHit = "hit"
	// CacheMiss: executed by the engine on this request.
	CacheMiss = "miss"
	// CacheCoalesced: piggybacked on an identical in-flight execution.
	CacheCoalesced = "coalesced"
	// CacheBypass: executed fresh because the request asked for a
	// per-job trace (trace spans exist only for real executions).
	CacheBypass = "bypass"
)

// Config configures a Server.
type Config struct {
	// Registry resolves experiment IDs; nil defaults to harness.Paper().
	Registry *harness.Registry
	// Golden, when non-nil, seeds the cache from golden snapshots.
	Golden fs.FS
	// Workers bounds concurrent engine executions (the worker pool);
	// <= 0 defaults to GOMAXPROCS.
	Workers int
	// Logf, when non-nil, receives one line per notable server event.
	Logf func(format string, args ...any)
}

// Server is the maiad control plane: registry + cache + coalescer +
// bounded worker pool + metrics behind an http.Handler.
type Server struct {
	reg     *harness.Registry
	cache   *Cache
	group   Group
	metrics *Metrics
	sem     chan struct{}
	logf    func(format string, args ...any)
}

// New builds a Server from cfg and seeds its cache.
func New(cfg Config) (*Server, error) {
	reg := cfg.Registry
	if reg == nil {
		reg = harness.Paper()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Server{
		reg:     reg,
		cache:   NewCache(),
		metrics: NewMetrics(),
		sem:     make(chan struct{}, workers),
		logf:    logf,
	}
	seeded, err := s.cache.SeedFromGolden(reg, cfg.Golden)
	if err != nil {
		return nil, err
	}
	s.logf("maiad: %d experiments registered, %d cache entries seeded, %d workers",
		reg.Len(), seeded, workers)
	return s, nil
}

// Metrics exposes the server's metrics (tests and embedders).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Cache exposes the server's result store (tests and embedders).
func (s *Server) Cache() *Cache { return s.cache }

// Handler returns the routed http.Handler serving every endpoint.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.timed("jobs", s.handleJob))
	mux.HandleFunc("POST /v1/sweeps", s.timed("sweeps", s.handleSweep))
	mux.HandleFunc("POST /v1/fleet", s.timed("fleet", s.handleFleet))
	mux.HandleFunc("GET /v1/jobs/{key}", s.timed("lookup", s.handleLookup))
	mux.HandleFunc("GET /v1/fleet/{key}", s.timed("fleet_lookup", s.handleLookup))
	mux.HandleFunc("GET /v1/experiments", s.timed("experiments", s.handleExperiments))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// timed wraps a handler with the endpoint's latency histogram.
func (s *Server) timed(name string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.metrics.Endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		hist.Observe(time.Since(start))
	}
}

// JobResponse is the answer to one job: the spec as normalized, its
// content address, where the bytes came from, the engine metadata, and
// the rendered output.
type JobResponse struct {
	// SchemaVersion is ResponseSchemaVersion.
	SchemaVersion int `json:"schema_version"`
	// Key is the job's content address (the normalized spec's SHA-256).
	Key string `json:"key"`
	// Spec echoes the normalized job.
	Spec harness.JobSpec `json:"spec"`
	// Cache reports how the job was answered (hit/miss/coalesced/bypass).
	Cache string `json:"cache"`
	// Seeded marks output that came from a committed golden snapshot.
	Seeded bool `json:"seeded,omitempty"`
	// Result is the engine metadata in wire form.
	Result harness.Result `json:"result"`
	// Output is the experiment's rendered text.
	Output string `json:"output"`
	// TraceSummary and Trace carry per-job simtrace output on request.
	TraceSummary string          `json:"trace_summary,omitempty"`
	Trace        json.RawMessage `json:"trace,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	// SchemaVersion is ResponseSchemaVersion.
	SchemaVersion int `json:"schema_version"`
	// Code classifies the failure (the typed-error taxonomy).
	Code string `json:"code"`
	// Error is the human-readable detail.
	Error string `json:"error"`
}

// errFleetEndpoint rejects fleet jobs posted to the plain-job endpoints.
var errFleetEndpoint = errors.New("fleet jobs are served by POST /v1/fleet")

// errorCode maps a typed validation error to its wire code.
func errorCode(err error) (string, int) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return "request_too_large", http.StatusRequestEntityTooLarge
	case errors.Is(err, harness.ErrUnknownExperiment):
		return "unknown_experiment", http.StatusNotFound
	case errors.Is(err, harness.ErrBadNodes):
		return "invalid_nodes", http.StatusBadRequest
	case errors.Is(err, harness.ErrUnknownFaultPlan):
		return "unknown_fault_plan", http.StatusBadRequest
	case errors.Is(err, harness.ErrBadModelOverride):
		return "invalid_model_override", http.StatusBadRequest
	case errors.Is(err, harness.ErrBadSchemaVersion):
		return "unsupported_schema_version", http.StatusBadRequest
	case errors.Is(err, harness.ErrBadSeed):
		return "invalid_seed", http.StatusBadRequest
	case errors.Is(err, harness.ErrBadFleetNodes):
		return "invalid_fleet_nodes", http.StatusBadRequest
	case errors.Is(err, harness.ErrBadFleetDuration):
		return "invalid_fleet_duration", http.StatusBadRequest
	case errors.Is(err, harness.ErrBadFleetScheduler):
		return "unknown_fleet_scheduler", http.StatusBadRequest
	case errors.Is(err, harness.ErrBadFleetMTBF):
		return "unknown_fleet_mtbf", http.StatusBadRequest
	case errors.Is(err, harness.ErrBadFleetHealth):
		return "invalid_fleet_health", http.StatusBadRequest
	case errors.Is(err, harness.ErrBadFleetExperiment):
		return "fleet_not_applicable", http.StatusBadRequest
	case errors.Is(err, errFleetEndpoint):
		return "fleet_endpoint", http.StatusBadRequest
	}
	return "bad_request", http.StatusBadRequest
}

// fail writes the typed error response and counts it.
func (s *Server) fail(w http.ResponseWriter, err error) {
	s.metrics.JobErrors.Add(1)
	code, status := errorCode(err)
	writeJSON(w, status, ErrorResponse{
		SchemaVersion: ResponseSchemaVersion,
		Code:          code,
		Error:         err.Error(),
	})
}

// writeJSON writes one JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// maxBodyBytes caps a POST body. A JobSpec is a few hundred bytes, so
// 1 MiB holds a sweep of thousands; a larger body is refused with
// request_too_large before it is buffered.
const maxBodyBytes = 1 << 20

// decodeBody decodes an HTTP request body that must hold exactly one
// JSON value with no unknown fields: anything after the value is an
// error, so a second concatenated spec is refused rather than silently
// dropped. Bodies past maxBodyBytes fail with *http.MaxBytesError.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// decodeSpec reads and validates one JobSpec from an HTTP body.
func (s *Server) decodeSpec(w http.ResponseWriter, r *http.Request) (harness.JobSpec, error) {
	var spec harness.JobSpec
	if err := decodeBody(w, r, &spec); err != nil {
		return harness.JobSpec{}, fmt.Errorf("malformed job spec: %w", err)
	}
	if err := spec.Validate(s.reg); err != nil {
		return harness.JobSpec{}, err
	}
	return spec.Normalize(), nil
}

// isFleetSpec reports whether a validated spec is a fleet job: it
// carries a v2 fleet block, or its experiment lives in the registry's
// "fleet" section (fleet-section jobs are fleet jobs even with every
// knob at its default).
func (s *Server) isFleetSpec(spec harness.JobSpec) bool {
	if spec.Fleet != nil {
		return true
	}
	e, ok := s.reg.ByID(spec.Experiment)
	return ok && e.Section == "fleet"
}

// handleJob serves POST /v1/jobs: cache, then coalesced execution.
// Fleet jobs are redirected to their own endpoint so fleet latency
// never pollutes the plain-job histograms.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	spec, err := s.decodeSpec(w, r)
	if err != nil {
		s.fail(w, err)
		return
	}
	if s.isFleetSpec(spec) {
		s.fail(w, fmt.Errorf("%w: %q is a fleet job", errFleetEndpoint, spec.Experiment))
		return
	}
	s.answer(w, r, spec)
}

// handleFleet serves POST /v1/fleet: the fleet-scenario mirror of
// /v1/jobs. It accepts only fleet jobs (see isFleetSpec) and shares the
// content-addressed cache, the coalescer, and the worker pool with the
// plain-job path, so an identical fleet spec is computed exactly once
// no matter which clients race it.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	spec, err := s.decodeSpec(w, r)
	if err != nil {
		s.fail(w, err)
		return
	}
	if !s.isFleetSpec(spec) {
		s.fail(w, fmt.Errorf("%w: %q is not a fleet experiment; POST it to /v1/jobs",
			harness.ErrBadFleetExperiment, spec.Experiment))
		return
	}
	s.answer(w, r, spec)
}

// answer serves one validated, normalized spec: per-job trace bypass,
// then cache, then coalesced execution — the shared tail of /v1/jobs
// and /v1/fleet.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, spec harness.JobSpec) {
	key := spec.Hash()

	if trace := r.URL.Query().Get("trace"); trace != "" {
		s.handleTracedJob(w, spec, key, trace)
		return
	}

	if e, ok := s.cache.Get(key); ok {
		s.metrics.CacheHits.Add(1)
		writeJSON(w, http.StatusOK, s.response(key, spec, CacheHit, e))
		return
	}
	e, shared, err := s.group.Do(key, func() (Entry, error) {
		return s.execute(spec, nil)
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	status := CacheMiss
	if shared {
		s.metrics.Coalesced.Add(1)
		status = CacheCoalesced
	} else {
		s.metrics.CacheMisses.Add(1)
	}
	writeJSON(w, http.StatusOK, s.response(key, spec, status, e))
}

// handleTracedJob serves a job that asked for its simtrace output:
// always a fresh execution (spans only exist for real runs), though the
// byte-identical output still lands in the cache for everyone else.
func (s *Server) handleTracedJob(w http.ResponseWriter, spec harness.JobSpec, key, mode string) {
	if mode != "summary" && mode != "chrome" {
		s.fail(w, fmt.Errorf("unknown trace mode %q (want summary or chrome)", mode))
		return
	}
	tracer := simtrace.New()
	tracer.SetProcess(spec.Experiment)
	e, err := s.execute(spec, tracer)
	if err != nil {
		s.fail(w, err)
		return
	}
	resp := s.response(key, spec, CacheBypass, e)
	if mode == "summary" {
		var buf bytes.Buffer
		if err := tracer.Summary().WriteText(&buf); err != nil {
			s.fail(w, err)
			return
		}
		resp.TraceSummary = buf.String()
	} else {
		var buf bytes.Buffer
		if err := tracer.WriteChrome(&buf); err != nil {
			s.fail(w, err)
			return
		}
		resp.Trace = json.RawMessage(buf.Bytes())
	}
	writeJSON(w, http.StatusOK, resp)
}

// response assembles a JobResponse from a cache entry.
func (s *Server) response(key string, spec harness.JobSpec, status string, e Entry) JobResponse {
	return JobResponse{
		SchemaVersion: ResponseSchemaVersion,
		Key:           key,
		Spec:          spec,
		Cache:         status,
		Seeded:        e.Seeded,
		Result:        e.Result,
		Output:        string(e.Output),
	}
}

// execute runs one job on the bounded worker pool and stores the result.
func (s *Server) execute(spec harness.JobSpec, tracer *simtrace.Tracer) (Entry, error) {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	s.metrics.InFlight.Add(1)
	defer s.metrics.InFlight.Add(-1)

	exp, ok := s.reg.ByID(spec.Experiment)
	if !ok {
		return Entry{}, fmt.Errorf("%w: %q", harness.ErrUnknownExperiment, spec.Experiment)
	}
	env, err := spec.Env()
	if err != nil {
		return Entry{}, err
	}
	env.Tracer = tracer
	s.metrics.EngineRuns.Add(1)
	start := time.Now()
	out, err := harness.RenderBytes(exp, env)
	wall := time.Since(start)
	if err != nil {
		s.logf("maiad: job %s (%s) failed: %v", spec.Hash()[:12], spec.Experiment, err)
		return Entry{}, err
	}
	e := Entry{
		Result: harness.Result{
			ID:    exp.ID,
			Title: exp.Title,
			Wall:  wall,
			Bytes: len(out),
		}.Wire(),
		Output: out,
	}
	s.cache.Put(spec.Hash(), e)
	return e, nil
}

// SweepRequest is the body of POST /v1/sweeps: a benchmark matrix.
type SweepRequest struct {
	// Specs are the jobs to run; identical env shaping (everything but
	// the experiment ID) batches through one parallel engine pass.
	Specs []harness.JobSpec `json:"specs"`
}

// SweepResponse answers a sweep with one JobResponse per spec, in
// request order.
type SweepResponse struct {
	// SchemaVersion is ResponseSchemaVersion.
	SchemaVersion int `json:"schema_version"`
	// Results holds one answer per requested spec, in order.
	Results []JobResponse `json:"results"`
}

// handleSweep serves POST /v1/sweeps: cache-filters the batch, groups
// the cold jobs by environment, and runs each group through the
// existing parallel experiment engine in one pass.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.fail(w, fmt.Errorf("malformed sweep request: %w", err))
		return
	}
	if len(req.Specs) == 0 {
		s.fail(w, errors.New("empty sweep: want specs to run"))
		return
	}
	specs := make([]harness.JobSpec, len(req.Specs))
	for i, spec := range req.Specs {
		if err := spec.Validate(s.reg); err != nil {
			s.fail(w, fmt.Errorf("specs[%d]: %w", i, err))
			return
		}
		specs[i] = spec.Normalize()
		if s.isFleetSpec(specs[i]) {
			s.fail(w, fmt.Errorf("specs[%d]: %w: %q is a fleet job", i, errFleetEndpoint, specs[i].Experiment))
			return
		}
	}

	resp := SweepResponse{
		SchemaVersion: ResponseSchemaVersion,
		Results:       make([]JobResponse, len(specs)),
	}
	// Answer what the cache already holds; group the rest by their env
	// signature (the spec with the experiment blanked) so each group is
	// one registry subset under one environment — exactly the parallel
	// engine's contract.
	type group struct {
		envSpec harness.JobSpec
		idx     []int
	}
	groups := make(map[string]*group)
	order := []string{}
	for i, spec := range specs {
		key := spec.Hash()
		if e, ok := s.cache.Get(key); ok {
			s.metrics.CacheHits.Add(1)
			resp.Results[i] = s.response(key, spec, CacheHit, e)
			continue
		}
		envSpec := spec
		envSpec.Experiment = ""
		sig := string(envSpec.MarshalCanonical())
		g, ok := groups[sig]
		if !ok {
			g = &group{envSpec: envSpec}
			groups[sig] = g
			order = append(order, sig)
		}
		g.idx = append(g.idx, i)
	}
	for _, sig := range order {
		g := groups[sig]
		if err := s.runSweepGroup(specs, g.envSpec, g.idx, &resp); err != nil {
			s.fail(w, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// runSweepGroup executes one environment-group of a sweep on the
// parallel engine and fills the group's slots in resp. The engine
// writes every experiment's bytes to one buffer in slice order, so the
// per-experiment outputs are recovered by walking Result.Bytes offsets.
func (s *Server) runSweepGroup(specs []harness.JobSpec, envSpec harness.JobSpec, idx []int, resp *SweepResponse) error {
	env, err := envSpec.Env()
	if err != nil {
		return err
	}
	exps := make([]harness.Experiment, len(idx))
	for j, i := range idx {
		exp, ok := s.reg.ByID(specs[i].Experiment)
		if !ok {
			return fmt.Errorf("%w: %q", harness.ErrUnknownExperiment, specs[i].Experiment)
		}
		exps[j] = exp
	}

	s.sem <- struct{}{}
	s.metrics.InFlight.Add(int64(len(idx)))
	var buf bytes.Buffer
	s.metrics.EngineRuns.Add(int64(len(idx)))
	results, err := harness.RunExperiments(&buf, env, exps, cap(s.sem))
	s.metrics.InFlight.Add(int64(-len(idx)))
	<-s.sem
	if err != nil {
		return err
	}

	off := 0
	for j, i := range idx {
		res := results[j]
		out := buf.Bytes()[off : off+res.Bytes]
		off += res.Bytes
		e := Entry{
			Result: harness.Result{
				ID:    res.ID,
				Title: res.Title,
				Wall:  res.Wall,
				Bytes: res.Bytes,
			}.Wire(),
			Output: append([]byte(nil), out...),
		}
		key := specs[i].Hash()
		s.cache.Put(key, e)
		s.metrics.CacheMisses.Add(1)
		resp.Results[i] = s.response(key, specs[i], CacheMiss, e)
	}
	return nil
}

// handleLookup serves GET /v1/jobs/{key}: a pure cache read.
func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	e, ok := s.cache.Get(key)
	if !ok {
		s.metrics.CacheMisses.Add(1)
		writeJSON(w, http.StatusNotFound, ErrorResponse{
			SchemaVersion: ResponseSchemaVersion,
			Code:          "unknown_key",
			Error:         fmt.Sprintf("no result under key %q; POST the spec to /v1/jobs to compute it", key),
		})
		return
	}
	s.metrics.CacheHits.Add(1)
	writeJSON(w, http.StatusOK, JobResponse{
		SchemaVersion: ResponseSchemaVersion,
		Key:           key,
		Cache:         CacheHit,
		Seeded:        e.Seeded,
		Result:        e.Result,
		Output:        string(e.Output),
	})
}

// ExperimentInfo is one row of GET /v1/experiments.
type ExperimentInfo struct {
	// ID, Title, Section, Kind mirror the registry metadata.
	ID      string `json:"id"`
	Title   string `json:"title"`
	Section string `json:"section"`
	Kind    string `json:"kind"`
	// DefaultKey is the content address of the experiment's default
	// full-density healthy-machine job — the key the goldens seed.
	DefaultKey string `json:"default_key"`
	// Cached reports whether that default job is already in the cache.
	Cached bool `json:"cached"`
}

// handleExperiments serves GET /v1/experiments.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	all := s.reg.All()
	infos := make([]ExperimentInfo, 0, len(all))
	for _, e := range all {
		key := harness.JobSpec{Experiment: e.ID}.Hash()
		_, cached := s.cache.Get(key)
		infos = append(infos, ExperimentInfo{
			ID:         e.ID,
			Title:      e.Title,
			Section:    e.Section,
			Kind:       e.Kind.String(),
			DefaultKey: key,
			Cached:     cached,
		})
	}
	writeJSON(w, http.StatusOK, infos)
}

// handleMetrics serves GET /metrics: Prometheus text by default, the
// JSON snapshot with ?format=json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot()
	snap.CacheEntries = s.cache.Len()
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	snap.WriteProm(w)
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	// Status is "ok" whenever the server can answer at all.
	Status string `json:"status"`
	// UptimeNs is the server's age.
	UptimeNs int64 `json:"uptime_ns"`
	// JobsInFlight is the current execution gauge.
	JobsInFlight int64 `json:"jobs_in_flight"`
	// CacheEntries is the store size.
	CacheEntries int `json:"cache_entries"`
	// Experiments is the registry size.
	Experiments int `json:"experiments"`
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:       "ok",
		UptimeNs:     s.metrics.Uptime().Nanoseconds(),
		JobsInFlight: s.metrics.InFlight.Load(),
		CacheEntries: s.cache.Len(),
		Experiments:  s.reg.Len(),
	})
}
