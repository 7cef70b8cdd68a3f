package harness

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"maia/internal/simtrace"
)

// ResultSchemaVersion is the Result wire-format version: bumped on any
// change to the JSON field set or meanings, so cached results and HTTP
// responses can't silently drift between builds.
const ResultSchemaVersion = 1

// Result is the metadata of one experiment executed by the engine. It
// doubles as a versioned wire type: the JSON field tags are part of the
// maiad response format, pinned by a golden encode/decode test. Encode via Wire so SchemaVersion and the
// flattened Error are populated.
type Result struct {
	// SchemaVersion is the wire-format version (ResultSchemaVersion);
	// zero on freshly-computed results until Wire stamps it.
	SchemaVersion int `json:"schema_version,omitempty"`
	// ID and Title identify the experiment.
	ID    string `json:"id"`
	Title string `json:"title,omitempty"`
	// Index is the experiment's position in presentation order.
	Index int `json:"index"`
	// Wall is the host wall-clock time the experiment took (the virtual
	// times it simulates are unaffected by scheduling); it encodes as
	// integer nanoseconds.
	Wall time.Duration `json:"wall_ns"`
	// Bytes is the size of the experiment's rendered output.
	Bytes int `json:"output_bytes"`
	// Mallocs and AllocBytes are the heap activity (object count and
	// cumulative bytes) observed while the experiment ran. They are
	// process-wide runtime.MemStats deltas: exact with one worker,
	// approximate (overlapping) with several.
	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	// Error is the wire form of Err, filled in by Wire.
	Error string `json:"error,omitempty"`
	// Err is the experiment's failure, if any. It never crosses the
	// wire directly — Wire flattens it to Error.
	Err error `json:"-"`
}

// Wire returns the result ready for encoding: SchemaVersion stamped
// with the current version and Err flattened into Error.
func (r Result) Wire() Result {
	r.SchemaVersion = ResultSchemaVersion
	if r.Err != nil {
		r.Error = r.Err.Error()
	}
	return r
}

// Render writes e's framed output — header, paper line, body, trailing
// blank line — exactly as RunAll emits it. Concatenating renders in
// presentation order therefore reproduces RunAll byte for byte.
func Render(w io.Writer, e Experiment, env Env) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\npaper: %s\n", e.ID, e.Title, e.Paper); err != nil {
		return err
	}
	if err := e.Run(w, env); err != nil {
		return fmt.Errorf("harness: %s: %w", e.ID, err)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderBytes returns e's framed output as a byte slice.
func RenderBytes(e Experiment, env Env) ([]byte, error) {
	var buf bytes.Buffer
	err := Render(&buf, e, env)
	return buf.Bytes(), err
}

// renderRecovered is Render with a panic, including one a worker
// goroutine re-raises through workgroup, turned into the experiment's
// error: one crashing experiment then fails alone instead of killing
// the process that runs the rest.
func renderRecovered(w io.Writer, e Experiment, env Env) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("harness: %s: panic: %v", e.ID, p)
		}
	}()
	return Render(w, e, env)
}

// RunExperiments executes exps on a pool of workers goroutines, each
// experiment against its own Env clone, and writes the buffered outputs
// to w in slice order as they become available — so the bytes written
// are identical to rendering the slice sequentially, regardless of
// worker count or completion order. Like Registry.RunAll, output stops
// at the first experiment that fails (its error is returned), a panic
// counting as a failure; experiments after it still execute and report
// through the returned Results, which are indexed in slice order.
//
// With tracing enabled (env.Tracer non-nil), each experiment records
// into a private child tracer whose process name is the experiment ID;
// the children are merged into env.Tracer in slice order after all
// workers finish, so the merged trace is deterministic for any worker
// count.
func RunExperiments(w io.Writer, env Env, exps []Experiment, workers int) ([]Result, error) {
	n := len(exps)
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}

	results := make([]Result, n)
	bufs := make([]bytes.Buffer, n)
	ready := make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	var children []*simtrace.Tracer
	if env.Tracer != nil {
		children = make([]*simtrace.Tracer, n)
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				e := exps[i]
				cenv := env.Clone()
				if children != nil {
					children[i] = simtrace.New()
					children[i].SetProcess(e.ID)
					cenv.Tracer = children[i]
				}
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				start := time.Now()
				err := renderRecovered(&bufs[i], e, cenv)
				wall := time.Since(start)
				runtime.ReadMemStats(&m1)
				results[i] = Result{
					ID:         e.ID,
					Title:      e.Title,
					Index:      i,
					Wall:       wall,
					Bytes:      bufs[i].Len(),
					Mallocs:    m1.Mallocs - m0.Mallocs,
					AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
					Err:        err,
				}
				close(ready[i])
			}
		}()
	}
	go func() {
		for i := 0; i < n; i++ {
			jobs <- i
		}
		close(jobs)
	}()

	var firstErr error
	for i := 0; i < n; i++ {
		<-ready[i]
		if firstErr != nil {
			continue
		}
		if results[i].Err != nil {
			firstErr = results[i].Err
			continue
		}
		if _, err := w.Write(bufs[i].Bytes()); err != nil {
			firstErr = err
		}
	}
	wg.Wait()
	if children != nil {
		// One capacity reservation for the whole merge: per-child Merge
		// growth would reallocate the parent store up to len(children)
		// times.
		total := 0
		for _, child := range children {
			total += child.SpanCount()
		}
		env.Tracer.Reserve(total)
	}
	for _, child := range children {
		env.Tracer.Merge(child)
	}
	return results, firstErr
}
