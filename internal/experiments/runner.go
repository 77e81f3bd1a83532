package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"tcsb/internal/core"
	"tcsb/internal/netsim"
	"tcsb/internal/report"
)

// Result is one executed experiment with its rendered tables.
type Result struct {
	Experiment Experiment
	Tables     []*report.Table
	// WhatIf names the interventions a paired (counterfactual) run was
	// diffed under; empty for ordinary runs. It tags JSONL rows so delta
	// streams from different interventions stay distinguishable.
	WhatIf []string
	// Timeline is the canonical schedule spec of a longitudinal run;
	// empty otherwise. It tags JSONL rows (every timeline table also
	// carries an explicit epoch column) so streams from different
	// schedules stay distinguishable.
	Timeline string
}

// runPool executes one derivation per experiment on at most parallel
// workers, collecting results in registration order regardless of
// completion order.
func runPool(exps []Experiment, parallel int, derive func(Experiment) []*report.Table) []Result {
	results := make([]Result, len(exps))
	netsim.ParallelFor(parallel, len(exps), func(i int) {
		results[i] = Result{Experiment: exps[i], Tables: derive(exps[i])}
	})
	return results
}

// Run executes the named experiments (empty = all non-delta) over the
// shared observatory with at most parallel concurrent workers, returning
// results in registration order regardless of completion order. parallel
// < 1 is treated as 1. Experiments are pure functions of the observatory,
// whose shared derived data is memoized behind sync.Once in
// internal/core, so any parallel setting yields identical results.
func Run(o *core.Observatory, names []string, parallel int) ([]Result, error) {
	exps, err := SelectFor(names, ModeRun)
	if err != nil {
		return nil, err
	}
	return runPool(exps, parallel, func(e Experiment) []*report.Table {
		return e.Run(o)
	}), nil
}

// RunPaired executes the named delta experiments (empty = all whatif.*)
// over a baseline/intervention observatory pair on at most parallel
// workers. labels names the applied interventions; it tags every result
// and heads the output with a table of what was changed, so two
// intervention streams are never confusable. Both observatories are
// finished campaigns and every Delta is a pure function of the pair, so
// output is byte-identical across parallel (and campaign worker)
// settings.
func RunPaired(baseline, whatif *core.Observatory, labels []string, names []string, parallel int) ([]Result, error) {
	exps, err := SelectFor(names, ModeDelta)
	if err != nil {
		return nil, err
	}
	results := runPool(exps, parallel, func(e Experiment) []*report.Table {
		return e.Delta(baseline, whatif)
	})
	head := Result{
		Experiment: Experiment{
			Name:        "whatif",
			Section:     "counterfactual",
			Description: "applied interventions",
		},
		Tables: []*report.Table{interventionTable(labels)},
	}
	results = append([]Result{head}, results...)
	for i := range results {
		results[i].WhatIf = labels
	}
	return results, nil
}

// interventionTable renders the applied-intervention header table.
func interventionTable(labels []string) *report.Table {
	t := &report.Table{
		Title:   "Counterfactual — applied interventions (in order)",
		Columns: []string{"#", "intervention"},
	}
	for i, l := range labels {
		t.AddRow(i+1, l)
	}
	return t
}

// RenderText writes the results as aligned text tables, one blank line
// between tables — the classic tcsb-experiments output.
func RenderText(w io.Writer, results []Result) error {
	for _, r := range results {
		for _, t := range r.Tables {
			if _, err := fmt.Fprintln(w, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// RenderJSONL writes the results as JSON Lines: one object per table,
// tagged with the experiment it belongs to. This is the machine-readable
// stream EXPERIMENTS.md is regenerated from.
func RenderJSONL(w io.Writer, results []Result) error {
	for _, r := range results {
		for _, t := range r.Tables {
			l := Line{Experiment: r.Experiment.Name, Section: r.Experiment.Section,
				WhatIf: r.WhatIf, Timeline: r.Timeline}
			l.Table.Title, l.Table.Columns, l.Table.Rows = t.Title, t.Columns, t.Rows
			if l.Table.Rows == nil {
				l.Table.Rows = [][]string{} // an empty table renders "rows":[]
			}
			line, err := json.Marshal(l)
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
				return err
			}
		}
	}
	return nil
}

// ListTable renders the catalog as a table (the -list output).
func ListTable() *report.Table {
	t := &report.Table{
		Title:   "Registered experiments",
		Columns: []string{"name", "paper", "description"},
	}
	for _, e := range All() {
		t.AddRow(e.Name, e.Section, e.Description)
	}
	return t
}
