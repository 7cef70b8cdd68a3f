package maiad

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"maia/internal/harness"
)

// newTestServer boots a golden-seeded server over the paper registry.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{Golden: harness.EmbeddedGolden(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJob submits one spec body and decodes the response into out.
func postJob(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode
}

// A default job hits the golden-seeded cache without any engine run,
// and the served bytes equal the committed snapshot exactly.
func TestJobGoldenSeededHit(t *testing.T) {
	s, ts := newTestServer(t)
	var jr JobResponse
	if code := postJob(t, ts.URL+"/v1/jobs", `{"experiment":"table1"}`, &jr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if jr.Cache != CacheHit || !jr.Seeded {
		t.Fatalf("cache=%q seeded=%v, want seeded hit", jr.Cache, jr.Seeded)
	}
	want, err := fs.ReadFile(harness.EmbeddedGolden(), harness.GoldenName("table1"))
	if err != nil {
		t.Fatal(err)
	}
	if jr.Output != string(want) {
		t.Error("served output differs from golden snapshot")
	}
	if jr.Key != (harness.JobSpec{Experiment: "table1"}).Hash() {
		t.Errorf("key %q is not the default content address", jr.Key)
	}
	if got := s.Metrics().EngineRuns.Load(); got != 0 {
		t.Errorf("engine ran %d times on a seeded hit", got)
	}
}

// A cold job misses once, executes exactly once, and every later
// request serves the byte-identical output from the cache.
func TestJobColdThenHot(t *testing.T) {
	s, ts := newTestServer(t)
	const body = `{"experiment":"fig7","quick":true}`

	var cold JobResponse
	if code := postJob(t, ts.URL+"/v1/jobs", body, &cold); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if cold.Cache != CacheMiss {
		t.Fatalf("first request: cache=%q, want miss", cold.Cache)
	}
	exp, _ := harness.Paper().ByID("fig7")
	env, err := harness.JobSpec{Experiment: "fig7", Quick: true}.Env()
	if err != nil {
		t.Fatal(err)
	}
	want, err := harness.RenderBytes(exp, env)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Output != string(want) {
		t.Error("cold output differs from a direct engine render")
	}

	var hot JobResponse
	postJob(t, ts.URL+"/v1/jobs", body, &hot)
	if hot.Cache != CacheHit {
		t.Fatalf("second request: cache=%q, want hit", hot.Cache)
	}
	if hot.Output != cold.Output {
		t.Error("cache hit is not byte-identical to the cold run")
	}
	if got := s.Metrics().EngineRuns.Load(); got != 1 {
		t.Errorf("engine ran %d times for one distinct job", got)
	}

	var byKey JobResponse
	resp, err := http.Get(ts.URL + "/v1/jobs/" + cold.Key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&byKey); err != nil {
		t.Fatal(err)
	}
	if byKey.Output != cold.Output {
		t.Error("lookup by key differs from the cold run")
	}
}

// N concurrent identical requests execute the engine exactly once: the
// leader misses, the rest coalesce onto its execution (or hit the cache
// it fills). EngineRuns is the pinned counter.
func TestJobConcurrentRequestsCoalesce(t *testing.T) {
	release := make(chan struct{})
	var runs atomic.Int64
	reg := harness.NewRegistry()
	if err := reg.Register(harness.Experiment{
		ID:    "block",
		Title: "blocks until released",
		Run: func(w io.Writer, env harness.Env) error {
			runs.Add(1)
			<-release
			_, err := fmt.Fprintln(w, "blocked payload")
			return err
		},
	}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Registry: reg, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	statuses := make([]string, n)
	outputs := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var jr JobResponse
			if code := postJob(t, ts.URL+"/v1/jobs", `{"experiment":"block"}`, &jr); code != http.StatusOK {
				t.Errorf("client %d: status %d", i, code)
			}
			statuses[i] = jr.Cache
			outputs[i] = jr.Output
		}(i)
	}
	// Hold the leader in the engine until every client has had time to
	// send its request and park on the coalescer.
	for runs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := s.Metrics().EngineRuns.Load(); got != 1 {
		t.Fatalf("engine ran %d times for %d identical concurrent jobs", got, n)
	}
	if runs.Load() != 1 {
		t.Fatalf("experiment body ran %d times", runs.Load())
	}
	counts := map[string]int{}
	for i, st := range statuses {
		counts[st]++
		if !strings.Contains(outputs[i], "blocked payload") {
			t.Errorf("client %d output %q", i, outputs[i])
		}
	}
	if counts[CacheMiss] != 1 {
		t.Errorf("%d misses, want exactly 1 (statuses: %v)", counts[CacheMiss], counts)
	}
	if counts[CacheCoalesced] < 1 {
		t.Errorf("no request coalesced (statuses: %v)", counts)
	}
	if counts[CacheMiss]+counts[CacheCoalesced]+counts[CacheHit] != n {
		t.Errorf("unexpected statuses: %v", counts)
	}
}

// A sweep batches cold jobs through the parallel engine and splits the
// shared buffer back into per-experiment outputs that match direct
// renders; a second identical sweep is all cache hits.
func TestSweep(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"specs":[
		{"experiment":"fig7","quick":true},
		{"experiment":"fig13","quick":true},
		{"experiment":"fig17","quick":true},
		{"experiment":"table1"}
	]}`
	var sr SweepResponse
	if code := postJob(t, ts.URL+"/v1/sweeps", body, &sr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(sr.Results) != 4 {
		t.Fatalf("%d results", len(sr.Results))
	}
	env, err := harness.JobSpec{Quick: true}.Env()
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"fig7", "fig13", "fig17"} {
		r := sr.Results[i]
		if r.Cache != CacheMiss {
			t.Errorf("%s: cache=%q, want miss", id, r.Cache)
		}
		exp, _ := harness.Paper().ByID(id)
		want, err := harness.RenderBytes(exp, env)
		if err != nil {
			t.Fatal(err)
		}
		if r.Output != string(want) {
			t.Errorf("%s: sweep output differs from direct render", id)
		}
		if r.Result.ID != id || r.Result.Bytes != len(want) {
			t.Errorf("%s: result metadata %+v", id, r.Result)
		}
	}
	if r := sr.Results[3]; r.Cache != CacheHit || !r.Seeded {
		t.Errorf("seeded default job in sweep: cache=%q seeded=%v", r.Cache, r.Seeded)
	}

	var again SweepResponse
	postJob(t, ts.URL+"/v1/sweeps", body, &again)
	for i, r := range again.Results {
		if r.Cache != CacheHit {
			t.Errorf("repeat sweep result %d: cache=%q, want hit", i, r.Cache)
		}
		if r.Output != sr.Results[i].Output {
			t.Errorf("repeat sweep result %d not byte-identical", i)
		}
	}
}

// A traced job bypasses the cache, attaches the requested trace form,
// and still leaves its output cached for everyone else.
func TestJobTrace(t *testing.T) {
	s, ts := newTestServer(t)
	const body = `{"experiment":"fig13","quick":true}`

	var summary JobResponse
	if code := postJob(t, ts.URL+"/v1/jobs?trace=summary", body, &summary); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if summary.Cache != CacheBypass {
		t.Fatalf("cache=%q, want bypass", summary.Cache)
	}

	var chrome JobResponse
	if code := postJob(t, ts.URL+"/v1/jobs?trace=chrome", body, &chrome); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if chrome.Cache != CacheBypass || len(chrome.Trace) == 0 || !json.Valid(chrome.Trace) {
		t.Fatalf("chrome trace: cache=%q, %d raw bytes", chrome.Cache, len(chrome.Trace))
	}
	if chrome.Output != summary.Output {
		t.Error("traced runs disagree on output bytes")
	}

	var er ErrorResponse
	if code := postJob(t, ts.URL+"/v1/jobs?trace=flame", body, &er); code != http.StatusBadRequest {
		t.Fatalf("unknown trace mode: status %d", code)
	}

	// The bypass run populated the cache: the untraced job now hits.
	var jr JobResponse
	postJob(t, ts.URL+"/v1/jobs", body, &jr)
	if jr.Cache != CacheHit || jr.Output != summary.Output {
		t.Errorf("after bypass: cache=%q, byte-identical=%v", jr.Cache, jr.Output == summary.Output)
	}
	if got := s.Metrics().EngineRuns.Load(); got != 2 {
		t.Errorf("engine ran %d times (two traced runs expected)", got)
	}
}

// Every typed validation error maps to its wire code and status.
func TestJobErrorTaxonomy(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body, code string
		status           int
	}{
		{"unknown experiment", `{"experiment":"nope"}`, "unknown_experiment", http.StatusNotFound},
		{"missing experiment", `{}`, "unknown_experiment", http.StatusNotFound},
		{"bad nodes", `{"experiment":"table1","nodes":3}`, "invalid_nodes", http.StatusBadRequest},
		{"unknown fault plan", `{"experiment":"table1","fault_plan":"nope"}`, "unknown_fault_plan", http.StatusBadRequest},
		{"orphan seed", `{"experiment":"table1","seed":5}`, "invalid_seed", http.StatusBadRequest},
		{"bad schema version", `{"experiment":"table1","schema_version":9}`, "unsupported_schema_version", http.StatusBadRequest},
		{"bad model key", `{"experiment":"table1","model":{"bogus":1}}`, "invalid_model_override", http.StatusBadRequest},
		{"unknown field", `{"experiment":"table1","surprise":1}`, "bad_request", http.StatusBadRequest},
		{"malformed json", `{`, "bad_request", http.StatusBadRequest},
		{"trailing data", `{"experiment":"table1"} {"experiment":"fig5"}`, "bad_request", http.StatusBadRequest},
		{"oversized body", `{"experiment":"table1"` + strings.Repeat(" ", maxBodyBytes) + `}`,
			"request_too_large", http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var er ErrorResponse
			code := postJob(t, ts.URL+"/v1/jobs", tc.body, &er)
			if code != tc.status || er.Code != tc.code {
				t.Errorf("got status=%d code=%q, want status=%d code=%q (%s)",
					code, er.Code, tc.status, tc.code, er.Error)
			}
		})
	}

	// A second sweep request in the body is refused, not dropped.
	var er ErrorResponse
	body := `{"specs":[{"experiment":"table1"}]} {"specs":[{"experiment":"fig5"}]}`
	if code := postJob(t, ts.URL+"/v1/sweeps", body, &er); code != http.StatusBadRequest || er.Code != "bad_request" {
		t.Errorf("sweep trailing data: status=%d code=%q (%s)", code, er.Code, er.Error)
	}
	// A sweep is capped at maxSweepSpecs specs, even all-cached ones; an
	// empty sweep stays a plain bad request.
	sweepOf := func(n int) string {
		return `{"specs":[` + strings.TrimSuffix(strings.Repeat(`{"experiment":"table1"},`, n), ",") + `]}`
	}
	for _, tc := range []struct {
		n      int
		status int
		code   string
	}{
		{0, http.StatusBadRequest, "bad_request"},
		{maxSweepSpecs, http.StatusOK, ""},
		{maxSweepSpecs + 1, http.StatusBadRequest, "sweep_too_large"},
	} {
		er = ErrorResponse{}
		if code := postJob(t, ts.URL+"/v1/sweeps", sweepOf(tc.n), &er); code != tc.status || er.Code != tc.code {
			t.Errorf("sweep of %d specs: status=%d code=%q, want %d %q (%s)", tc.n, code, er.Code, tc.status, tc.code, er.Error)
		}
	}
	// The other two POST bodies share the cap.
	for _, path := range []string{"/v1/sweeps", "/v1/fleet"} {
		er = ErrorResponse{}
		big := "{" + strings.Repeat(" ", maxBodyBytes)
		if code := postJob(t, ts.URL+path, big, &er); code != http.StatusRequestEntityTooLarge || er.Code != "request_too_large" {
			t.Errorf("%s oversized body: status=%d code=%q (%s)", path, code, er.Code, er.Error)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	er = ErrorResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound || er.Code != "unknown_key" {
		t.Errorf("cold lookup: status=%d code=%q", resp.StatusCode, er.Code)
	}
}

// The experiments listing reports every registry entry as cached once
// the goldens are seeded.
func TestExperimentsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []ExperimentInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != harness.Paper().Len() {
		t.Fatalf("%d experiments listed, registry has %d", len(infos), harness.Paper().Len())
	}
	for _, info := range infos {
		if !info.Cached {
			t.Errorf("%s: default job not cached after seeding", info.ID)
		}
		if info.DefaultKey != (harness.JobSpec{Experiment: info.ID}).Hash() {
			t.Errorf("%s: wrong default key", info.ID)
		}
	}
}

// /metrics and /healthz reflect the traffic that went through.
func TestMetricsAndHealthz(t *testing.T) {
	s, ts := newTestServer(t)
	var jr JobResponse
	postJob(t, ts.URL+"/v1/jobs", `{"experiment":"table1"}`, &jr)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(prom, []byte("maiad_cache_hits_total 1")) {
		t.Errorf("prom exposition missing hit counter:\n%s", prom)
	}
	if !bytes.Contains(prom, []byte(`maiad_request_seconds_count{endpoint="jobs"} 1`)) {
		t.Errorf("prom exposition missing jobs latency count:\n%s", prom)
	}

	resp, err = http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.CacheHits != 1 || snap.CacheEntries != s.Cache().Len() {
		t.Errorf("snapshot: %+v", snap)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.Experiments != harness.Paper().Len() || h.CacheEntries != s.Cache().Len() {
		t.Errorf("healthz: %+v", h)
	}
}

// A default fleet job hits the golden-seeded cache through POST
// /v1/fleet without any engine run, byte-identical to the snapshot.
func TestFleetGoldenSeededHit(t *testing.T) {
	s, ts := newTestServer(t)
	var jr JobResponse
	if code := postJob(t, ts.URL+"/v1/fleet", `{"experiment":"ext-fleet-recovery"}`, &jr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if jr.Cache != CacheHit || !jr.Seeded {
		t.Fatalf("cache=%q seeded=%v, want seeded hit", jr.Cache, jr.Seeded)
	}
	want, err := fs.ReadFile(harness.EmbeddedGolden(), harness.GoldenName("ext-fleet-recovery"))
	if err != nil {
		t.Fatal(err)
	}
	if jr.Output != string(want) {
		t.Error("served fleet output differs from golden snapshot")
	}
	if got := s.Metrics().EngineRuns.Load(); got != 0 {
		t.Errorf("engine ran %d times on a seeded fleet hit", got)
	}
}

// A cold fleet job (v2 fleet block) misses once, the hot repeat is a
// byte-identical cache hit, and the key resolves on GET /v1/fleet/{key}.
func TestFleetColdThenHot(t *testing.T) {
	s, ts := newTestServer(t)
	const body = `{"experiment":"ext-fleet-recovery","quick":true,"fleet":{"nodes":8,"scheduler":"round-robin"},"seed":3}`

	var cold JobResponse
	if code := postJob(t, ts.URL+"/v1/fleet", body, &cold); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if cold.Cache != CacheMiss {
		t.Fatalf("first fleet request: cache=%q, want miss", cold.Cache)
	}
	if cold.Spec.SchemaVersion != 2 || cold.Spec.Fleet == nil {
		t.Fatalf("normalized fleet spec echo: %+v", cold.Spec)
	}

	var hot JobResponse
	postJob(t, ts.URL+"/v1/fleet", body, &hot)
	if hot.Cache != CacheHit || hot.Output != cold.Output {
		t.Fatalf("second fleet request: cache=%q byte-identical=%v", hot.Cache, hot.Output == cold.Output)
	}
	if got := s.Metrics().EngineRuns.Load(); got != 1 {
		t.Errorf("engine ran %d times for one distinct fleet job", got)
	}

	resp, err := http.Get(ts.URL + "/v1/fleet/" + cold.Key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var byKey JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&byKey); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || byKey.Output != cold.Output {
		t.Errorf("fleet lookup by key: status=%d byte-identical=%v", resp.StatusCode, byKey.Output == cold.Output)
	}
}

// N concurrent identical fleet posts execute the engine exactly once —
// the coalescer and cache serve everyone else byte-identically.
func TestFleetConcurrentPostsCoalesce(t *testing.T) {
	s, ts := newTestServer(t)
	const body = `{"experiment":"ext-fleet-mtbf","quick":true,"fleet":{"nodes":8},"seed":7}`

	const n = 8
	outputs := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var jr JobResponse
			if code := postJob(t, ts.URL+"/v1/fleet", body, &jr); code != http.StatusOK {
				t.Errorf("client %d: status %d", i, code)
			}
			outputs[i] = jr.Output
		}(i)
	}
	wg.Wait()

	if got := s.Metrics().EngineRuns.Load(); got != 1 {
		t.Fatalf("engine ran %d times for %d identical concurrent fleet posts", got, n)
	}
	for i := 1; i < n; i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("client %d output differs from client 0", i)
		}
	}
}

// Fleet jobs route only through /v1/fleet: the plain-job and sweep
// endpoints reject them, and /v1/fleet rejects non-fleet experiments.
func TestFleetEndpointRouting(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, url, body, code string
	}{
		{"fleet block on /v1/jobs", "/v1/jobs",
			`{"experiment":"ext-fleet-recovery","fleet":{"nodes":8}}`, "fleet_endpoint"},
		{"fleet section on /v1/jobs", "/v1/jobs",
			`{"experiment":"ext-fleet-mtbf"}`, "fleet_endpoint"},
		{"fleet spec in sweep", "/v1/sweeps",
			`{"specs":[{"experiment":"fig7","quick":true},{"experiment":"ext-fleet-recovery"}]}`, "fleet_endpoint"},
		{"plain job on /v1/fleet", "/v1/fleet",
			`{"experiment":"fig7","quick":true}`, "fleet_not_applicable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var er ErrorResponse
			code := postJob(t, ts.URL+tc.url, tc.body, &er)
			if code != http.StatusBadRequest || er.Code != tc.code {
				t.Errorf("got status=%d code=%q, want 400 %q (%s)", code, er.Code, tc.code, er.Error)
			}
		})
	}
}

// Every fleet-block validation error maps to its wire code.
func TestFleetErrorTaxonomy(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body, code string
	}{
		{"bad fleet nodes", `{"experiment":"ext-fleet-mtbf","fleet":{"nodes":513}}`, "invalid_fleet_nodes"},
		{"bad fleet duration", `{"experiment":"ext-fleet-mtbf","fleet":{"duration_s":86401}}`, "invalid_fleet_duration"},
		{"unknown scheduler", `{"experiment":"ext-fleet-mtbf","fleet":{"scheduler":"clairvoyant"}}`, "unknown_fleet_scheduler"},
		{"unknown mtbf profile", `{"experiment":"ext-fleet-mtbf","fleet":{"mtbf":"immortal"}}`, "unknown_fleet_mtbf"},
		{"bad health period", `{"experiment":"ext-fleet-mtbf","fleet":{"health_s":-1}}`, "invalid_fleet_health"},
		{"fleet block off-section", `{"experiment":"fig7","fleet":{"nodes":8}}`, "fleet_not_applicable"},
		{"fleet with fault plan", `{"experiment":"ext-fleet-mtbf","fault_plan":"degraded","fleet":{"nodes":8}}`, "fleet_not_applicable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var er ErrorResponse
			code := postJob(t, ts.URL+"/v1/fleet", tc.body, &er)
			if code != http.StatusBadRequest || er.Code != tc.code {
				t.Errorf("got status=%d code=%q, want 400 %q (%s)", code, er.Code, tc.code, er.Error)
			}
		})
	}
}

// The fleet endpoints report latency under their own histogram labels.
func TestFleetMetricsLabels(t *testing.T) {
	_, ts := newTestServer(t)
	var jr JobResponse
	postJob(t, ts.URL+"/v1/fleet", `{"experiment":"ext-fleet-recovery"}`, &jr)
	resp, err := http.Get(ts.URL + "/v1/fleet/" + jr.Key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(prom, []byte(`maiad_request_seconds_count{endpoint="fleet"} 1`)) {
		t.Errorf("prom exposition missing fleet latency count:\n%s", prom)
	}
	if !bytes.Contains(prom, []byte(`maiad_request_seconds_count{endpoint="fleet_lookup"} 1`)) {
		t.Errorf("prom exposition missing fleet_lookup latency count:\n%s", prom)
	}
}

// An experiment that panics answers a typed 500 on every endpoint
// instead of killing the connection or the process, and releases its
// coalescer key and worker slot: the repeat request gets the same
// answer rather than parking forever on a leader that never returns.
func TestEnginePanicIsTyped(t *testing.T) {
	reg := harness.NewRegistry()
	if err := reg.Register(harness.Experiment{
		ID:    "boom",
		Title: "panics mid-render",
		Run: func(w io.Writer, env harness.Env) error {
			panic("boom")
		},
	}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Registry: reg, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{Timeout: 10 * time.Second}

	for i, req := range []struct{ path, body string }{
		{"/v1/jobs", `{"experiment":"boom"}`},
		{"/v1/jobs", `{"experiment":"boom"}`},
		{"/v1/sweeps", `{"specs":[{"experiment":"boom"}]}`},
	} {
		resp, err := client.Post(ts.URL+req.path, "application/json", strings.NewReader(req.body))
		if err != nil {
			t.Fatalf("request %d (%s): %v", i, req.path, err)
		}
		var er ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("request %d (%s): decoding: %v", i, req.path, err)
		}
		if resp.StatusCode != http.StatusInternalServerError || er.Code != "engine_panic" {
			t.Errorf("request %d (%s): status=%d code=%q, want 500 engine_panic (%s)",
				i, req.path, resp.StatusCode, er.Code, er.Error)
		}
	}
	if got := s.Metrics().InFlight.Load(); got != 0 {
		t.Errorf("InFlight = %d after the panics, want 0", got)
	}
	if got := len(s.sem); got != 0 {
		t.Errorf("%d worker slots still held after the panics", got)
	}
}

// An experiment whose Run returns an error is the server's failure, not
// the client's: jobs and sweeps answer 500 engine_error, and nothing is
// cached.
func TestEngineErrorIsTyped(t *testing.T) {
	reg := harness.NewRegistry()
	if err := reg.Register(harness.Experiment{
		ID:    "fails",
		Title: "fails mid-render",
		Run: func(w io.Writer, env harness.Env) error {
			return errors.New("disk full")
		},
	}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Registry: reg, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{Timeout: 10 * time.Second}

	for i, req := range []struct{ path, body string }{
		{"/v1/jobs", `{"experiment":"fails"}`},
		{"/v1/sweeps", `{"specs":[{"experiment":"fails"}]}`},
	} {
		resp, err := client.Post(ts.URL+req.path, "application/json", strings.NewReader(req.body))
		if err != nil {
			t.Fatalf("request %d (%s): %v", i, req.path, err)
		}
		var er ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("request %d (%s): decoding: %v", i, req.path, err)
		}
		if resp.StatusCode != http.StatusInternalServerError || er.Code != "engine_error" ||
			!strings.Contains(er.Error, "disk full") {
			t.Errorf("request %d (%s): status=%d code=%q err=%q, want 500 engine_error with the cause",
				i, req.path, resp.StatusCode, er.Code, er.Error)
		}
	}
	if got := s.Metrics().EngineRuns.Load(); got != 2 {
		t.Errorf("EngineRuns = %d, want 2 (a failed render is not cached)", got)
	}
}

// Every cold job holds one worker slot, whether it came alone or in a
// sweep: a 4-spec sweep racing a /v1/jobs post never renders more than
// Workers at once. A spec listed twice in one sweep runs once.
func TestSweepSharesWorkerSlotsAndCoalescer(t *testing.T) {
	// gate0..gate5 each block until released, recording the peak number
	// rendering at once.
	release := make(chan struct{})
	var running, peak atomic.Int64
	reg := harness.NewRegistry()
	for i := 0; i < 6; i++ {
		if err := reg.Register(harness.Experiment{
			ID:    fmt.Sprintf("gate%d", i),
			Title: "blocks until released",
			Order: i,
			Run: func(w io.Writer, env harness.Env) error {
				now := running.Add(1)
				for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
				}
				<-release
				running.Add(-1)
				_, err := fmt.Fprintln(w, "gate payload")
				return err
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{Registry: reg, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		var sr SweepResponse
		body := `{"specs":[{"experiment":"gate0"},{"experiment":"gate1"},{"experiment":"gate2"},{"experiment":"gate3"}]}`
		if code := postJob(t, ts.URL+"/v1/sweeps", body, &sr); code != http.StatusOK {
			t.Errorf("sweep: status %d", code)
		}
	}()
	go func() {
		defer wg.Done()
		var jr JobResponse
		if code := postJob(t, ts.URL+"/v1/jobs", `{"experiment":"gate4"}`, &jr); code != http.StatusOK {
			t.Errorf("job: status %d", code)
		}
	}()
	// Let every request reach the engine it can reach before releasing.
	for running.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := peak.Load(); got > 2 {
		t.Errorf("%d renders ran at once with Workers: 2", got)
	}
	if got := s.Metrics().EngineRuns.Load(); got != 5 {
		t.Errorf("engine ran %d times for 5 distinct cold jobs", got)
	}

	before := s.Metrics().EngineRuns.Load()
	var sr SweepResponse
	body := `{"specs":[{"experiment":"gate5"},{"experiment":"gate5"}]}`
	if code := postJob(t, ts.URL+"/v1/sweeps", body, &sr); code != http.StatusOK {
		t.Fatalf("duplicate sweep: status %d", code)
	}
	if got := s.Metrics().EngineRuns.Load() - before; got != 1 {
		t.Errorf("a spec listed twice ran the engine %d times", got)
	}
	statuses := []string{sr.Results[0].Cache, sr.Results[1].Cache}
	if (statuses[0] == CacheMiss) == (statuses[1] == CacheMiss) || sr.Results[0].Output != sr.Results[1].Output {
		t.Errorf("duplicate statuses %v, want one miss and one coalesced/hit with equal output", statuses)
	}
}
