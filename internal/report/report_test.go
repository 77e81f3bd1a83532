package report

import (
	"strings"
	"testing"

	"tcsb/internal/stats"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Columns: []string{"a", "bb"}}
	tbl.AddRow("x", 1)
	tbl.AddRow("long-label", 0.123456)
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title, underline, header, separator, 2 rows.
	if len(lines) != 6 {
		t.Fatalf("rendered %d lines: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "T") || !strings.HasPrefix(lines[1], "=") {
		t.Error("missing title/underline")
	}
	if !strings.Contains(lines[4], "x") || !strings.Contains(lines[5], "0.1235") {
		t.Errorf("row content wrong: %q %q", lines[4], lines[5])
	}
	// Columns align: header 'bb' starts at same offset in every row.
	idx := strings.Index(lines[2], "bb")
	if got := strings.Index(lines[5], "0.1235"); got != idx {
		t.Errorf("column misaligned: header at %d, cell at %d", idx, got)
	}
}

func TestTableNoTitle(t *testing.T) {
	tbl := &Table{Columns: []string{"c"}}
	tbl.AddRow("v")
	out := tbl.String()
	if strings.HasPrefix(out, "\n") || strings.Contains(out, "=") {
		t.Errorf("untitled table rendered badly: %q", out)
	}
}

func TestPct(t *testing.T) {
	if Pct(0.5) != "50.0%" || Pct(0) != "0.0%" || Pct(1) != "100.0%" {
		t.Fatal("Pct formatting wrong")
	}
}

func TestSharesTableSorted(t *testing.T) {
	tbl := SharesTable("S", "k", map[string]float64{"a": 0.1, "b": 0.7, "c": 0.2})
	if tbl.Rows[0][0] != "b" || tbl.Rows[2][0] != "a" {
		t.Fatalf("rows not sorted by share: %v", tbl.Rows)
	}
	if tbl.Rows[0][1] != "70.0%" {
		t.Fatalf("share cell = %q", tbl.Rows[0][1])
	}
}

func TestCurveTable(t *testing.T) {
	curve := stats.Pareto([]float64{3, 1})
	tbl := CurveTable("P", curve, []float64{0.5, 1.0})
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[0][1] != "75.0%" {
		t.Fatalf("share at 50%% = %q", tbl.Rows[0][1])
	}
}
