// Package report holds experiment results as titled tables and renders
// them as aligned text, the text output of cmd/tcsb-experiments
// (experiments.RenderJSONL writes the same tables as JSON lines, the
// source of the numbers recorded in EXPERIMENTS.md).
package report

import (
	"fmt"
	"strings"

	"tcsb/internal/stats"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row; values are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
		sb.WriteString(strings.Repeat("=", len(t.Title)))
		sb.WriteByte('\n')
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if i < len(widths) && len(cell) < widths[i] {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// Pct formats a fraction as a percentage with one decimal.
func Pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// SharesTable renders a label→share map as a table sorted by descending
// share.
func SharesTable(title, labelCol string, shares map[string]float64) *Table {
	t := &Table{Title: title, Columns: []string{labelCol, "share"}}
	items := stats.MapToItems(shares)
	for _, it := range items {
		t.AddRow(it.Label, Pct(it.Count))
	}
	return t
}

// CurveTable samples a Pareto curve at round top-fractions.
func CurveTable(title string, curve []stats.ParetoPoint, fractions []float64) *Table {
	t := &Table{Title: title, Columns: []string{"top % of entities", "% of weight"}}
	for _, f := range fractions {
		t.AddRow(Pct(f), Pct(stats.ParetoShareAt(curve, f)))
	}
	return t
}
