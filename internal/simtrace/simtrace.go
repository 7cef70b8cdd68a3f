// Package simtrace is a zero-dependency, virtual-time span and counter
// tracer for the simulated runtimes in this repository.
//
// The paper's contribution is *explaining* where time goes on Maia —
// host vs Phi ring vs PCIe/DAPL — yet a simulator normally emits only
// final tables. simtrace records the virtual-time events behind every
// number: a Tracer collects spans (start/end vclock timestamps, a
// track naming the agent — rank, thread, device — and a fixed category
// vocabulary) plus monotonic counters (bytes moved, messages,
// retries). Instrumented code pays nothing when tracing is off: every
// method on *Tracer is nil-safe, so the idiomatic hook is a plain
// method call on a possibly-nil tracer, guarded by an `!= nil` check
// only where arguments would otherwise allocate.
//
// Timestamps are virtual (vclock.Time), never wall-clock, so a trace is
// exactly reproducible. Export formats: Chrome trace_event JSON
// (WriteChrome, loadable in Perfetto / chrome://tracing) and a
// plain-text per-category time/bytes summary (Summary).
package simtrace

import (
	"sort"
	"sync"

	"maia/internal/vclock"
)

// Category classifies a span or counter into the fixed vocabulary used
// across all simulated runtimes. The transport layer always reports
// flight spans under CatPCIe (the interconnect layer of the stack) with
// the span name identifying the actual fabric ("shm:host", "shm:phi",
// "pcie:HostToPhi0", "ib:fdr").
type Category string

// The category vocabulary. Every span and counter carries exactly one.
const (
	CatMPI     Category = "mpi"     // MPI operations (point-to-point and collectives)
	CatOMP     Category = "omp"     // OpenMP constructs (parallel regions, loops, barriers)
	CatOffload Category = "offload" // offload-engine phases (marshal, scatter)
	CatPCIe    Category = "pcie"    // transport flights and DMA framing, any fabric
	CatIO      Category = "io"      // file-system transfers
	CatCompute Category = "compute" // local computation and injection overhead
	CatFault   Category = "fault"   // injected-fault effects (retries, backoff, fallbacks)
)

// Categories returns the vocabulary in display order.
func Categories() []Category {
	return []Category{CatMPI, CatOMP, CatOffload, CatPCIe, CatIO, CatCompute, CatFault}
}

// Span is one completed virtual-time interval on one track.
type Span struct {
	// Proc groups tracks into a logical process (one experiment ID, one
	// World); it becomes the Chrome trace pid.
	Proc string
	// Track names the agent ("host16/rank3", "omp:phi236", "offload:dma");
	// it becomes the Chrome trace tid.
	Track string
	// Cat is the span's category.
	Cat Category
	// Name identifies the operation ("MPI_Allgather[ring]", "dma:h2d").
	Name string
	// Start and End are the span's virtual-time bounds, End >= Start.
	Start, End vclock.Time
	// Bytes is the payload moved by the span, 0 when not applicable.
	Bytes int64
}

// Dur returns the span's virtual duration.
func (s Span) Dur() vclock.Time { return s.End - s.Start }

// CounterKey identifies one monotonic counter.
type CounterKey struct {
	// Cat is the counter's category.
	Cat Category
	// Name identifies the quantity ("messages", "bytes", "mpi_retries").
	Name string
}

// CounterValue is one counter with its accumulated value.
type CounterValue struct {
	// Key identifies the counter.
	Key CounterKey
	// Value is the accumulated (monotonic) total.
	Value int64
}

// Tracer accumulates spans and counters. The zero value of the pointer
// (nil) is a valid no-op tracer: every method returns immediately, so
// instrumented code needs no conditional around plain record calls. A
// non-nil Tracer is safe for concurrent use.
type Tracer struct {
	mu       sync.Mutex
	proc     string
	spans    []Span
	counters map[CounterKey]int64
}

// New returns an empty, enabled tracer.
func New() *Tracer {
	return &Tracer{counters: make(map[CounterKey]int64)}
}

// SetProcess names the logical process attributed to subsequently
// recorded spans (typically an experiment ID).
func (t *Tracer) SetProcess(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.proc = name
	t.mu.Unlock()
}

// Reserve grows the tracer's span storage so at least n more spans can
// be recorded without reallocation — the capacity hint for callers that
// know their span count up front (harness runners, Merge). It never
// shrinks and is a no-op on a nil tracer.
func (t *Tracer) Reserve(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.mu.Lock()
	if free := cap(t.spans) - len(t.spans); free < n {
		grown := make([]Span, len(t.spans), len(t.spans)+n)
		copy(grown, t.spans)
		t.spans = grown
	}
	t.mu.Unlock()
}

// Span records one completed interval. End < Start is clamped to an
// instant span at Start (virtual time is monotonic per agent, so this
// only defends against rounding).
func (t *Tracer) Span(track string, cat Category, name string, start, end vclock.Time, bytes int64) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{
		Proc: t.proc, Track: track, Cat: cat, Name: name,
		Start: start, End: end, Bytes: bytes,
	})
	t.mu.Unlock()
}

// Count adds delta to the named monotonic counter.
func (t *Tracer) Count(cat Category, name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.counters == nil {
		t.counters = make(map[CounterKey]int64)
	}
	t.counters[CounterKey{Cat: cat, Name: name}] += delta
	t.mu.Unlock()
}

// Merge folds src into t: spans are appended (keeping their own Proc)
// and counters are summed. Merging the same sources in the same order
// yields the same tracer state, and the canonical sort in Spans makes
// exports independent of merge order entirely. src may be nil.
func (t *Tracer) Merge(src *Tracer) {
	if t == nil || src == nil || t == src {
		return
	}
	src.mu.Lock()
	spans := append([]Span(nil), src.spans...)
	counters := make(map[CounterKey]int64, len(src.counters))
	for k, v := range src.counters {
		counters[k] = v
	}
	src.mu.Unlock()

	t.mu.Lock()
	if free := cap(t.spans) - len(t.spans); free < len(spans) {
		grown := make([]Span, len(t.spans), len(t.spans)+len(spans))
		copy(grown, t.spans)
		t.spans = grown
	}
	t.spans = append(t.spans, spans...)
	if t.counters == nil {
		t.counters = make(map[CounterKey]int64)
	}
	for k, v := range counters {
		t.counters[k] += v
	}
	t.mu.Unlock()
}

// SpanCount reports how many spans have been recorded.
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Spans returns a copy of the recorded spans in canonical order:
// (Proc, Track, Start, End, Cat, Name, Bytes). The canonical order
// makes every export deterministic regardless of recording
// interleaving or merge order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Cat != b.Cat {
			return a.Cat < b.Cat
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Bytes < b.Bytes
	})
	return out
}

// Counters returns the accumulated counters sorted by (Cat, Name).
func (t *Tracer) Counters() []CounterValue {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]CounterValue, 0, len(t.counters))
	for k, v := range t.counters {
		out = append(out, CounterValue{Key: k, Value: v})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Key.Cat != b.Key.Cat {
			return a.Key.Cat < b.Key.Cat
		}
		return a.Key.Name < b.Key.Name
	})
	return out
}
