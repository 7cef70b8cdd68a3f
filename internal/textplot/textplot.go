// Package textplot renders the harness's experiment output: aligned
// tables and compact ASCII series, one per reproduced figure.
package textplot

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows of cells and prints them column-aligned.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable starts a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// Row appends one row; values are formatted with %v (floats use %.4g).
func (t *Table) Row(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// Fprint writes the aligned table.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			// Right-align all but the first column.
			if i == 0 {
				b.WriteString(c)
				b.WriteString(strings.Repeat(" ", pad))
			} else {
				b.WriteString(strings.Repeat(" ", pad))
				b.WriteString(c)
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := line(t.header); err != nil {
		return err
	}
	rule := make([]string, len(t.header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if err := line(rule); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}
