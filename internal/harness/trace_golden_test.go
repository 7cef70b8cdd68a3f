package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"maia/internal/simtrace"
)

// traceSummaryGolden is the committed snapshot of fig13's quick-mode
// category summary; regenerate with -update after deliberate changes to
// the trace instrumentation or the MPI model.
const traceSummaryGolden = "testdata/trace_summary_fig13.txt"

// runTracedFig13 runs fig13 in quick mode with tracing on and returns
// the tracer.
func runTracedFig13(t *testing.T) *simtrace.Tracer {
	t.Helper()
	tracer := simtrace.New()
	tracer.SetProcess("fig13")
	env := quickEnv()
	env.Tracer = tracer
	e, ok := Paper().ByID("fig13")
	if !ok {
		t.Fatal("fig13 not registered")
	}
	if err := e.Run(&bytes.Buffer{}, env); err != nil {
		t.Fatal(err)
	}
	return tracer
}

// The traced fig13 category summary matches its committed snapshot: the
// span population (counts, per-category virtual time, byte volumes) is
// deterministic down to the formatted text.
func TestTraceSummaryGolden(t *testing.T) {
	tracer := runTracedFig13(t)
	var buf bytes.Buffer
	if err := tracer.Summary().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(traceSummaryGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(traceSummaryGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace summary drifted from snapshot (rerun with -update if deliberate)\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), want)
	}
}

// The exported Chrome trace is structurally sound: valid JSON, complete
// events with non-negative durations, thread metadata for every tid,
// and at least the mpi/pcie/compute categories an intra-device MPI
// figure must produce.
func TestTraceChromeExportStructure(t *testing.T) {
	tracer := runTracedFig13(t)
	var buf bytes.Buffer
	if err := tracer.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q, want ms", doc.DisplayTimeUnit)
	}
	cats := map[string]int{}
	namedTids := map[int]bool{}
	usedTids := map[int]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				namedTids[e.Tid] = true
			}
		case "X":
			cats[e.Cat]++
			usedTids[e.Tid] = true
			if e.Dur == nil || *e.Dur < 0 {
				t.Fatalf("complete event %q lacks a non-negative dur", e.Name)
			}
			if e.Ts < 0 {
				t.Fatalf("complete event %q has negative ts", e.Name)
			}
		default:
			t.Fatalf("unexpected event phase %q", e.Ph)
		}
	}
	for _, want := range []string{"mpi", "pcie", "compute"} {
		if cats[want] == 0 {
			t.Errorf("no %s-category events in a traced fig13", want)
		}
	}
	if len(cats) < 3 {
		t.Errorf("only %d categories, want >= 3", len(cats))
	}
	for tid := range usedTids {
		if !namedTids[tid] {
			t.Errorf("tid %d has events but no thread_name metadata", tid)
		}
	}
}

// The per-category times in the summary equal the sums over the
// exported spans, and the trace horizon covers every span end.
func TestTraceSummaryConsistentWithSpans(t *testing.T) {
	tracer := runTracedFig13(t)
	sum := tracer.Summary()
	byCat := map[simtrace.Category]int{}
	for _, s := range tracer.Spans() {
		byCat[s.Cat]++
		if s.End > sum.Horizon {
			t.Fatalf("span %q ends at %v, beyond horizon %v", s.Name, s.End, sum.Horizon)
		}
	}
	if sum.Spans != tracer.SpanCount() {
		t.Errorf("summary counts %d spans, tracer has %d", sum.Spans, tracer.SpanCount())
	}
	for _, c := range sum.Categories {
		if byCat[c.Cat] != c.Spans {
			t.Errorf("category %s: summary %d spans, spans() has %d", c.Cat, c.Spans, byCat[c.Cat])
		}
	}
	if !strings.Contains(catNames(sum), "mpi") {
		t.Error("summary lacks the mpi category")
	}
}

func catNames(s simtrace.TraceSummary) string {
	names := make([]string, len(s.Categories))
	for i, c := range s.Categories {
		names[i] = string(c.Cat)
	}
	return strings.Join(names, ",")
}
