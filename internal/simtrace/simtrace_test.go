package simtrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"maia/internal/vclock"
)

const us = vclock.Microsecond

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.SetProcess("p")
	tr.Span("track", CatMPI, "op", 0, us, 8)
	tr.Count(CatMPI, "messages", 1)
	tr.Merge(New())
	New().Merge(tr)
	if tr.SpanCount() != 0 || tr.Spans() != nil || tr.Counters() != nil {
		t.Fatal("nil tracer recorded something")
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tr.Summary().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

// The disabled (nil) hooks must not allocate: the instrumented hot
// paths (one simmpi send is three of these calls) rely on it.
func TestNilTracerZeroAllocs(t *testing.T) {
	var tr *Tracer
	n := testing.AllocsPerRun(100, func() {
		tr.Span("track", CatMPI, "op", 0, us, 8)
		tr.Count(CatMPI, "bytes", 8)
	})
	if n != 0 {
		t.Fatalf("nil tracer hooks allocate %v times per run", n)
	}
}

// TestReserve pins the capacity-hint contract: nil-safe, non-positive
// counts are no-ops, and after Reserve(n) the next n Span calls must
// not reallocate the backing store.
func TestReserve(t *testing.T) {
	var nilTr *Tracer
	nilTr.Reserve(100) // must not panic
	tr := New()
	tr.Reserve(0)
	tr.Reserve(-3)
	tr.Reserve(64)
	c0 := cap(tr.spans)
	if c0 < 64 {
		t.Fatalf("Reserve(64) left capacity %d", c0)
	}
	for i := 0; i < 64; i++ {
		tr.Span("track", CatMPI, "op", 0, us, 8)
	}
	if cap(tr.spans) != c0 {
		t.Fatalf("reserved store reallocated: capacity %d -> %d", c0, cap(tr.spans))
	}
	// A second Reserve with enough free room must not copy either.
	tr.Reserve(0)
	if cap(tr.spans) != c0 {
		t.Fatalf("no-op Reserve changed capacity to %d", cap(tr.spans))
	}
}

func TestSpanRecordingAndCanonicalOrder(t *testing.T) {
	tr := New()
	tr.SetProcess("exp")
	tr.Span("b", CatCompute, "late", 2*us, 3*us, 0)
	tr.Span("a", CatMPI, "op", 0, 2*us, 16)
	tr.Span("a", CatCompute, "early", 0, us, 0)
	tr.Span("a", CatPCIe, "flight", us, 2*us, 16)

	spans := tr.Spans()
	if len(spans) != 4 || tr.SpanCount() != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	// Canonical order: track "a" before "b"; within "a" by start, then
	// end, then category.
	want := []string{"early", "op", "flight", "late"}
	for i, s := range spans {
		if s.Name != want[i] {
			t.Errorf("span %d is %q, want %q", i, s.Name, want[i])
		}
		if s.Proc != "exp" {
			t.Errorf("span %d proc %q, want exp", i, s.Proc)
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	if d := spans[1].Dur(); d != 2*us {
		t.Errorf("op duration %v, want 2us", d)
	}
}

func TestNegativeDurationClamped(t *testing.T) {
	tr := New()
	tr.Span("t", CatIO, "x", 5*us, us, 0)
	s := tr.Spans()[0]
	if s.Dur() != 0 || s.Start != 5*us {
		t.Errorf("want clamped instant span at start, got [%v, %v]", s.Start, s.End)
	}
}

func TestCounters(t *testing.T) {
	tr := New()
	tr.Count(CatMPI, "messages", 2)
	tr.Count(CatMPI, "bytes", 100)
	tr.Count(CatMPI, "messages", 3)
	tr.Count(CatOMP, "barriers", 1)
	got := tr.Counters()
	want := []CounterValue{
		{Key: CounterKey{CatMPI, "bytes"}, Value: 100},
		{Key: CounterKey{CatMPI, "messages"}, Value: 5},
		{Key: CounterKey{CatOMP, "barriers"}, Value: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d counters, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("counter %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// Merging child tracers in any order produces identical exports: the
// engine merges per-experiment tracers in slice order, but determinism
// must not depend on it.
func TestMergeOrderIndependence(t *testing.T) {
	mk := func() (*Tracer, *Tracer) {
		a, b := New(), New()
		a.SetProcess("a")
		a.Span("r0", CatMPI, "send", 0, us, 8)
		a.Count(CatMPI, "messages", 1)
		b.SetProcess("b")
		b.Span("r0", CatMPI, "recv", 0, 2*us, 8)
		b.Count(CatMPI, "messages", 2)
		return a, b
	}

	a1, b1 := mk()
	m1 := New()
	m1.Merge(a1)
	m1.Merge(b1)

	a2, b2 := mk()
	m2 := New()
	m2.Merge(b2)
	m2.Merge(a2)

	var o1, o2 bytes.Buffer
	if err := m1.WriteChrome(&o1); err != nil {
		t.Fatal(err)
	}
	if err := m2.WriteChrome(&o2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(o1.Bytes(), o2.Bytes()) {
		t.Error("merge order changed the Chrome export")
	}
	if m1.Counters()[0].Value != 3 {
		t.Errorf("merged counter %d, want 3", m1.Counters()[0].Value)
	}
}

func TestWriteChromeStructure(t *testing.T) {
	tr := New()
	tr.SetProcess("fig")
	tr.Span("rank0", CatMPI, "MPI_Send", 0, 3*us, 1024)
	tr.Span("rank1", CatPCIe, "shm:host", us, 2*us, 1024)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var meta, complete int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Args["name"] == nil {
				t.Errorf("metadata event %q lacks a name arg", ev.Name)
			}
		case "X":
			complete++
			if ev.Dur < 0 || ev.Ts < 0 {
				t.Errorf("span %q has negative ts/dur", ev.Name)
			}
			if ev.Pid == 0 || ev.Tid == 0 {
				t.Errorf("span %q lacks pid/tid", ev.Name)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	// 1 process_name + 2 thread_name metadata events, 2 spans.
	if meta != 3 || complete != 2 {
		t.Errorf("got %d metadata + %d complete events, want 3 + 2", meta, complete)
	}
	if doc.TraceEvents[len(doc.TraceEvents)-1].Args["bytes"] == nil {
		t.Error("span with payload lost its bytes arg")
	}
}

func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"traceEvents\":[]") {
		t.Errorf("empty trace should emit an empty traceEvents array, got %s", buf.String())
	}
}

func TestSummary(t *testing.T) {
	tr := New()
	tr.Span("r0", CatMPI, "op", 0, 4*us, 64)
	tr.Span("r1", CatMPI, "op", 0, 2*us, 32)
	tr.Span("r0", CatPCIe, "shm:host", us, 2*us, 64)
	tr.Count(CatMPI, "messages", 2)

	s := tr.Summary()
	if s.Spans != 3 || s.Horizon != 4*us {
		t.Fatalf("summary %d spans horizon %v, want 3 / 4us", s.Spans, s.Horizon)
	}
	if len(s.Categories) != 2 {
		t.Fatalf("got %d categories, want 2", len(s.Categories))
	}
	// Display order puts mpi before pcie.
	if s.Categories[0].Cat != CatMPI || s.Categories[1].Cat != CatPCIe {
		t.Errorf("category order %v, %v", s.Categories[0].Cat, s.Categories[1].Cat)
	}
	if s.Categories[0].Time != 6*us || s.Categories[0].Bytes != 96 {
		t.Errorf("mpi rollup %v/%d, want 6us/96", s.Categories[0].Time, s.Categories[0].Bytes)
	}

	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"trace summary: 3 spans", "mpi", "pcie", "counters:", "mpi/messages"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary text lacks %q:\n%s", want, out)
		}
	}
}

// A tracer shared by many goroutines (one per simulated rank) must not
// lose or corrupt records. Run with -race this is the concurrency audit.
func TestConcurrentRecording(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	const goroutines, per = 8, 100
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Span("track", CatCompute, "w", vclock.Time(i)*us, vclock.Time(i+1)*us, 1)
				tr.Count(CatCompute, "ops", 1)
			}
		}(g)
	}
	wg.Wait()
	if tr.SpanCount() != goroutines*per {
		t.Errorf("recorded %d spans, want %d", tr.SpanCount(), goroutines*per)
	}
	if v := tr.Counters()[0].Value; v != goroutines*per {
		t.Errorf("counter %d, want %d", v, goroutines*per)
	}
}
