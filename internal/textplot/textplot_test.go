package textplot

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tab := NewTable("name", "value")
	tab.Row("short", 1)
	tab.Row("a-much-longer-name", 123.456)
	var buf bytes.Buffer
	if err := tab.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4 (header, rule, 2 rows)", len(lines))
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[1], "---") {
		t.Fatalf("header/rule wrong: %q %q", lines[0], lines[1])
	}
	if !strings.Contains(lines[3], "123.5") {
		t.Fatalf("float formatting wrong: %q", lines[3])
	}
	// Value column right-aligned: both data rows end at the same column.
	if len(lines[2]) > len(lines[3]) {
		t.Fatalf("rows unaligned: %q vs %q", lines[2], lines[3])
	}
}

func TestTableMixedTypes(t *testing.T) {
	tab := NewTable("a", "b", "c")
	tab.Row("x", float32(1.5), 7)
	var buf bytes.Buffer
	if err := tab.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1.5") || !strings.Contains(buf.String(), "7") {
		t.Fatalf("output %q", buf.String())
	}
}

func TestChartRender(t *testing.T) {
	out := NewChart(5).
		Series("rising", []float64{1, 2, 3, 4, 5}).
		Series("flat", []float64{2, 2, 2, 2, 2}).
		XRange("1B", "4MB").
		Render()
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatalf("markers missing:\n%s", out)
	}
	if !strings.Contains(out, "rising") || !strings.Contains(out, "flat") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "1B") || !strings.Contains(out, "4MB") {
		t.Fatalf("x labels missing:\n%s", out)
	}
	if !strings.Contains(out, "5 ┤") {
		t.Fatalf("y max label missing:\n%s", out)
	}
	// The rising series' last point sits on the top row.
	lines := strings.Split(out, "\n")
	if !strings.HasSuffix(strings.TrimRight(lines[1], " "), "*") {
		t.Fatalf("max point not on top row: %q", lines[1])
	}
}

func TestChartDegenerate(t *testing.T) {
	if NewChart(5).Render() != "" {
		t.Fatal("empty chart should render nothing")
	}
	if NewChart(5).Series("zeros", []float64{0, 0}).Render() != "" {
		t.Fatal("all-zero chart should render nothing")
	}
	// NaN values are skipped, not plotted.
	out := NewChart(4).Series("gaps", []float64{1, math.NaN(), 3}).Render()
	if out == "" {
		t.Fatal("chart with NaN gaps should still render")
	}
}
