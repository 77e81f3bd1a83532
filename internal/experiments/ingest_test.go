package experiments

import (
	"bytes"
	"strings"
	"testing"

	"tcsb/internal/report"
)

// ingestFixture is a small result set covering every JSONL tag shape:
// a plain table, a multi-table experiment, a what-if row and a
// timeline row, with percent, float and non-numeric cells.
func ingestFixture() []Result {
	plain := &report.Table{
		Title:   "Fig X — shares",
		Columns: []string{"methodology", "cloud", "non-cloud"},
	}
	plain.AddRow("A-N", "91.9%", "8.1%")
	plain.AddRow("G-IP", "89.4%", "10.6%")
	second := &report.Table{Title: "counts", Columns: []string{"k", "n"}}
	second.AddRow("total", 42)
	empty := &report.Table{Title: "empty", Columns: []string{"a", "b"}}
	epoch := &report.Table{Title: "population", Columns: []string{"epoch", "online"}}
	epoch.AddRow(1, 100.0)
	epoch.AddRow(2, 90.0)
	return []Result{
		{Experiment: Experiment{Name: "figx", Section: "§9"}, Tables: []*report.Table{plain, second}},
		{Experiment: Experiment{Name: "figy", Section: "§10"}, Tables: []*report.Table{empty}},
		{Experiment: Experiment{Name: "whatif.figx", Section: "§9"}, WhatIf: []string{"hydra-dissolution"}, Tables: []*report.Table{second}},
		{Experiment: Experiment{Name: "timeline.population", Section: "§5"}, Timeline: "epochs=2;days=1", Tables: []*report.Table{epoch}},
	}
}

// TestParseJSONLRoundTrip pins the re-ingestion contract: rendering,
// parsing and re-rendering reproduces the byte stream exactly — the
// property the analyze-only mode relies on to treat archives as
// lossless.
func TestParseJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderJSONL(&buf, ingestFixture()); err != nil {
		t.Fatal(err)
	}
	rows, err := ParseJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 { // one line per table
		t.Fatalf("%d rows, want 5", len(rows))
	}
	if again := renderParsed(t, rows); !bytes.Equal(buf.Bytes(), again) {
		t.Fatalf("round trip drifted:\n in: %s\nout: %s", buf.Bytes(), again)
	}

	// Spot-check the typed view.
	if rows[0].Experiment != "figx" || rows[0].Table.Rows[0][1] != "91.9%" {
		t.Fatalf("row 0 mis-parsed: %+v", rows[0])
	}
	if rows[3].WhatIf[0] != "hydra-dissolution" || rows[4].Timeline != "epochs=2;days=1" {
		t.Fatalf("tags mis-parsed: %+v / %+v", rows[3], rows[4])
	}
}

// TestRenderJSONLLine pins the bytes of one line: one table is one
// single-line object with the table's fields in a fixed order, and an
// empty table renders an empty rows array, not null.
func TestRenderJSONLLine(t *testing.T) {
	tbl := &report.Table{Title: "J", Columns: []string{"a", "b"}}
	tbl.AddRow("x", 1)
	empty := &report.Table{Title: "E", Columns: []string{"a"}}
	var buf bytes.Buffer
	err := RenderJSONL(&buf, []Result{{Experiment: Experiment{Name: "j", Section: "§1"}, Tables: []*report.Table{tbl, empty}}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"experiment":"j","section":"§1","table":{"title":"J","columns":["a","b"],"rows":[["x","1"]]}}` + "\n" +
		`{"experiment":"j","section":"§1","table":{"title":"E","columns":["a"],"rows":[]}}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("RenderJSONL =\n%s\nwant\n%s", got, want)
	}
}

// TestParseJSONLRejections pins the strict-decode surface: truncated
// JSON, unknown fields and tag-less lines are errors naming the line.
func TestParseJSONLRejections(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"truncated", `{"experiment":"x","section":"s","table":{"title":`, "line 1"},
		{"unknown field", `{"experiment":"x","section":"s","tabel":{}}`, "line 1"},
		{"missing experiment", `{"section":"s","table":{"title":"t","columns":["a"],"rows":[]}}`, "line 1"},
		{"missing columns", `{"experiment":"x","section":"s","table":{"title":"t","rows":[]}}`, "line 1"},
		{"trailing garbage", `{"experiment":"x","section":"s","table":{"title":"t","columns":["a"],"rows":[]}} trailing-garbage`, "line 1: trailing data"},
		{"second value", `{"experiment":"x","section":"s","table":{"title":"t","columns":["a"],"rows":[]}} {"junk":1}`, "line 1: trailing data"},
		{
			"second line bad",
			`{"experiment":"x","section":"s","table":{"title":"t","columns":["a"],"rows":[]}}` + "\n" + `{`,
			"line 2",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseJSONL(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}

	// Blank lines are tolerated (the stream ends with a newline).
	rows, err := ParseJSONL(strings.NewReader("\n\n"))
	if err != nil || len(rows) != 0 {
		t.Fatalf("blank input: rows=%d err=%v", len(rows), err)
	}
}

// renderParsed renders re-ingested rows back into a JSONL stream.
func renderParsed(t *testing.T, rows []ParsedRow) []byte {
	t.Helper()
	results := make([]Result, len(rows))
	for i, r := range rows {
		// RenderJSONL emits one line per table, so one single-table
		// Result per row reproduces the original stream byte for byte.
		results[i] = Result{
			Experiment: Experiment{Name: r.Experiment, Section: r.Section},
			Tables:     []*report.Table{r.Table},
			WhatIf:     r.WhatIf,
			Timeline:   r.Timeline,
		}
	}
	var buf bytes.Buffer
	if err := RenderJSONL(&buf, results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzParseJSONL drives the archive decoder with arbitrary bytes. It
// must never panic, and for an accepted input the rendering of the
// parsed rows is a byte fixed point: parsing and rendering it again
// reproduces it exactly. (The input itself need not round-trip: the
// decoder accepts blank lines, ragged rows and key spellings the
// renderer never writes.)
func FuzzParseJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := ParseJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		once := renderParsed(t, rows)
		again, err := ParseJSONL(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("rendered rows do not parse back: %v\n%s", err, once)
		}
		if twice := renderParsed(t, again); !bytes.Equal(once, twice) {
			t.Fatalf("rendering is not a fixed point:\n%s\nre-renders as\n%s", once, twice)
		}
	})
}
