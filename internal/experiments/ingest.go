package experiments

// JSONL re-ingestion: the inverse of RenderJSONL. The analyze-only
// entry points (tcsb-experiments -analyze, tcsb-server /v1/analyze)
// consume prior run archives — the exact JSONL byte streams the run
// cache stores — and need the rows back as typed tables to compute
// cross-run deltas. ParseJSONL is pinned round-trip-exact against
// RenderJSONL: parse then re-render reproduces the input bytes, so an
// archive can be re-ingested and re-emitted without drift.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"tcsb/internal/report"
)

// ParsedRow is one re-ingested JSONL line: a rendered table with the
// experiment tags RenderJSONL wrote alongside it.
type ParsedRow struct {
	Experiment string
	Section    string
	WhatIf     []string
	Timeline   string
	Table      *report.Table
}

// jsonlLine is one line of the JSONL stream: RenderJSONL marshals it
// and ParseJSONL decodes it, so the two cannot drift apart.
type jsonlLine struct {
	Experiment string   `json:"experiment"`
	Section    string   `json:"section"`
	WhatIf     []string `json:"whatif,omitempty"`
	Timeline   string   `json:"timeline,omitempty"`
	Table      struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	} `json:"table"`
}

// DecodeStrict decodes the one JSON value in data into v. Unknown
// fields and anything but whitespace after the value are errors: the
// archive decoders (JSONL lines, run manifests) accept only what this
// engine writes.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// ParseJSONL reads a RenderJSONL stream back into typed rows. Each line
// is decoded with DecodeStrict: an archive that does not parse was not
// written by this engine's renderer and must not be silently analyzed.
func ParseJSONL(r io.Reader) ([]ParsedRow, error) {
	var out []ParsedRow
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var l jsonlLine
		if err := DecodeStrict(raw, &l); err != nil {
			return nil, fmt.Errorf("jsonl line %d: %w", lineNo, err)
		}
		if l.Experiment == "" || len(l.Table.Columns) == 0 {
			return nil, fmt.Errorf("jsonl line %d: missing experiment name or table columns", lineNo)
		}
		out = append(out, ParsedRow{
			Experiment: l.Experiment,
			Section:    l.Section,
			WhatIf:     l.WhatIf,
			Timeline:   l.Timeline,
			Table: &report.Table{
				Title:   l.Table.Title,
				Columns: l.Table.Columns,
				Rows:    l.Table.Rows,
			},
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("jsonl: %w", err)
	}
	return out, nil
}
