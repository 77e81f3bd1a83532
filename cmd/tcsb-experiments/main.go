// Command tcsb-experiments regenerates the tables and figures of the
// paper's evaluation from a freshly simulated world. Experiments live in
// the internal/experiments registry; this command only selects, runs and
// renders them. See EXPERIMENTS.md for the paper-vs-measured record.
//
// Usage:
//
//	tcsb-experiments -list
//	tcsb-experiments [-seed N] [-scale F | -preset scale.4x] [-days N]
//	                 [-only fig3,fig13] [-workers N] [-parallel N]
//	                 [-json] [-net-profile net.measured]
//	tcsb-experiments -what-if hydra-dissolution[,aws-outage,...]
//	                 [-only whatif.fig8] [-json] [...]
//	tcsb-experiments -what-if attack.sybil-eclipse[,attack.provider-spam,...]
//	                 [-attack-params "band=20;sybils=48"] [...]
//	tcsb-experiments -timeline "epochs=14;@5:hydra-dissolution"
//	                 [-epochs N] [-only timeline.population] [...]
//	tcsb-experiments -timeline timeline.dissolution [-epochs N] [...]
//	tcsb-experiments -timeline timeline.siege [...]
//	tcsb-experiments [...] -archive-dir runs/
//	tcsb-experiments -analyze -archive-dir runs/
//	                 [-expectations expectations.json] [-json]
//
// -workers drives the observation campaign (world ticks, crawls,
// provider-record collection) on a bounded goroutine pool; -parallel
// bounds concurrently executing experiments over the finished
// observatory. Both must be positive: a zero or negative pool is a
// configuration error (exit 2), never a silent one-worker fallback.
// -what-if runs a paired campaign instead — a baseline world
// and a world rewritten by the named interventions, sharing the -workers
// pool — and renders the whatif.* delta experiments over the pair.
// -timeline runs a longitudinal campaign: one evolving world stepped
// through a declarative epoch schedule (spec grammar or a timeline.*
// preset name) with population drift and interventions firing at epoch
// boundaries, rendered by the timeline.* experiments with epoch-tagged
// rows; -epochs overrides the schedule's epoch count (alone it means a
// drift-free "epochs=N" schedule). The schedule owns the calendar in
// timeline mode: passing -days alongside -timeline/-epochs is an error
// (exit 2) — use a days= clause in the schedule spec instead.
// The attack.* interventions (adversarial scenarios: sybil eclipse,
// provider-record spam, poisoned gateway stampedes, targeted
// censorship) compose like any other -what-if entry and schedule like
// any other @epoch event; -attack-params tunes their knobs through the
// shared parameter grammar (see internal/attack).
// -net-profile selects the per-link impairment model (net.ideal /
// net.measured / net.degraded, or a raw "pair=delay±jitter,loss=p"
// spec): every RPC, gateway fetch and crawl wave then accrues simulated
// latency and loss, folded into the latency.* experiments' percentile
// sketches. The default (net.ideal) is the exact zero-latency identity.
// The net.* names also compose as interventions: -what-if net.degraded
// pairs ideal vs degraded worlds, and a timeline "@E:net.degraded"
// epoch swaps the model mid-run.
// -preset applies a named scale.* scenario (population/traffic
// multiplier via the Config.Scaled cloning hook); it composes with
// -scale multiplicatively. The observation path streams: vantage-point
// events fold into bounded per-shard statistics as they happen, which is
// what makes scale.4x and beyond routine.
// -archive-dir persists each campaign run — the JSONL byte stream plus
// a manifest of the canonical request — into a run archive;
// -analyze is the analyze-only mode: it runs no simulation, ingests the
// archive, groups runs by request shape, and reports cross-run deltas,
// epoch drift slopes and alerts against the -expectations rule file
// (exit 1 when alerts fire; see internal/analyze).
// Output on stdout is a deterministic function of the flags and seed:
// for the same selection it is byte-identical for every -workers and
// -parallel value (timings and progress go to stderr). The same
// canonical request also keys cmd/tcsb-server's run cache, so a
// campaign run here is the same content address the service computes.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"tcsb/internal/analyze"
	"tcsb/internal/core"
	"tcsb/internal/counterfactual"
	"tcsb/internal/experiments"
	"tcsb/internal/netsim"
	"tcsb/internal/report"
	"tcsb/internal/scenario"
	"tcsb/internal/timeline"
)

// options carries the parsed flag values into buildRequest. explicit
// holds the names of flags the user actually set (flag.Visit), which is
// how timeline mode distinguishes "-days 10 by default" from "-days 10
// on the command line" — the former is ignored in favor of the
// schedule, the latter is a contradiction that must not be swallowed.
type options struct {
	seed         int64
	scale        float64
	preset       string
	netProfile   string
	days         int
	only         string
	whatIf       string
	attackParams string
	timelineSpec string
	epochs       int
	workers      int
	parallel     int
	archiveDir   string
	analyze      bool
	expectations string
	explicit     map[string]bool
}

// runFlagNames are the campaign-shaping flags; none of them mean
// anything in analyze-only mode, so setting one there is a
// contradiction surfaced at exit 2, never silently ignored.
var runFlagNames = []string{
	"seed", "scale", "preset", "net-profile", "days", "only", "what-if",
	"attack-params", "timeline", "epochs", "workers", "parallel",
}

// validateAnalyzeOptions rejects flag shapes that mix analyze-only mode
// with campaign flags. Pure, so the table tests cover each rejection.
func validateAnalyzeOptions(o options) error {
	if !o.analyze {
		if o.expectations != "" {
			return fmt.Errorf("-expectations only applies to -analyze mode")
		}
		return nil
	}
	if o.archiveDir == "" {
		return fmt.Errorf("-analyze needs -archive-dir: the archive is what gets analyzed")
	}
	for _, name := range runFlagNames {
		if o.explicit[name] {
			return fmt.Errorf("-%s shapes a campaign; -analyze reads prior archives and runs nothing", name)
		}
	}
	return nil
}

// buildRequest validates the flag shape and reduces it to the canonical
// run request. Every rejection here is an exit-2 diagnostic in main;
// the function is pure so the table tests can cover each one.
func buildRequest(o options) (core.RunRequest, error) {
	var req core.RunRequest
	if o.workers <= 0 {
		return req, fmt.Errorf("-workers must be positive (got %d); the pool size never changes the output, so there is no zero-worker mode", o.workers)
	}
	if o.parallel <= 0 {
		return req, fmt.Errorf("-parallel must be positive (got %d)", o.parallel)
	}
	if o.scale <= 0 {
		return req, fmt.Errorf("-scale must be positive (got %g)", o.scale)
	}
	timelineMode := o.timelineSpec != "" || o.epochs > 0
	days := o.days
	if timelineMode {
		if o.explicit["days"] {
			return req, fmt.Errorf("-days is owned by the schedule in timeline mode; use a days= clause in the -timeline spec instead")
		}
		days = 0 // the schedule's calendar applies
	} else if days <= 0 {
		return req, fmt.Errorf("-days must be positive (got %d)", days)
	}
	var only []string
	for _, f := range strings.Split(o.only, ",") {
		if f = strings.TrimSpace(f); f != "" {
			only = append(only, f)
		}
	}
	req = core.RunRequest{
		Seed:         o.seed,
		Scale:        o.scale,
		Preset:       o.preset,
		Days:         days,
		NetProfile:   o.netProfile,
		AttackParams: o.attackParams,
		WhatIf:       o.whatIf,
		Timeline:     o.timelineSpec,
		Epochs:       o.epochs,
		Only:         only,
		Workers:      o.workers,
		Parallel:     o.parallel,
	}
	return req, nil
}

func main() {
	o := options{explicit: make(map[string]bool)}
	flag.Int64Var(&o.seed, "seed", 1, "simulation seed")
	flag.Float64Var(&o.scale, "scale", 1.0, "population scale factor (1.0 ≈ 1/12 of the real network)")
	flag.StringVar(&o.preset, "preset", "", "named scale.* scenario preset (e.g. scale.4x); composes with -scale")
	flag.StringVar(&o.netProfile, "net-profile", "", "per-link impairment model: a net.* preset (net.ideal, net.measured, net.degraded) or a raw spec like \"cloud-cloud=5ms±2;resi-cloud=40ms±15,loss=0.02\"; empty = net.ideal (zero latency)")
	flag.IntVar(&o.days, "days", 10, "observation days (timeline mode: the schedule owns the calendar; setting -days is an error)")
	flag.StringVar(&o.only, "only", "", "comma-separated experiment filter (e.g. table1,fig3,fig13)")
	flag.StringVar(&o.whatIf, "what-if", "", "comma-separated counterfactual interventions (e.g. hydra-dissolution,churn-2x or attack.sybil-eclipse); runs a paired baseline/intervention campaign and the whatif.* delta experiments")
	flag.StringVar(&o.attackParams, "attack-params", "", "attack.* parameter overrides (e.g. \"band=20;sybils=48;spam=100\"); tunes any attack interventions named by -what-if or a -timeline schedule")
	flag.StringVar(&o.timelineSpec, "timeline", "", "epoch schedule (e.g. \"epochs=14;@5:hydra-dissolution\") or a timeline.* preset name; runs a longitudinal campaign and the timeline.* experiments")
	flag.IntVar(&o.epochs, "epochs", 0, "override the -timeline schedule's epoch count (alone: a drift-free epochs=N schedule)")
	flag.IntVar(&o.workers, "workers", runtime.NumCPU(), "goroutine pool size for the observation campaign (output is identical for every value; must be positive)")
	flag.IntVar(&o.parallel, "parallel", runtime.NumCPU(), "max experiments executed concurrently (must be positive)")
	jsonOut := flag.Bool("json", false, "emit JSONL (one JSON object per table) instead of text tables; in -analyze mode, the full report JSON instead of the summary")
	list := flag.Bool("list", false, "list registered experiments and interventions, then exit")
	flag.StringVar(&o.archiveDir, "archive-dir", "", "run archive directory: campaign runs persist their JSONL stream + request manifest there; -analyze reads it back")
	flag.BoolVar(&o.analyze, "analyze", false, "analyze-only mode: ingest the -archive-dir, group runs by request shape, report cross-run deltas, drift slopes and expectation alerts (exit 1 when alerts fire); runs no simulation")
	flag.StringVar(&o.expectations, "expectations", "", "pinned expectations file for -analyze (JSON rule list; see expectations.json)")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) { o.explicit[f.Name] = true })

	if *list {
		fmt.Println(experiments.ListTable())
		fmt.Println()
		fmt.Println(interventionList())
		fmt.Println()
		fmt.Println(presetList())
		fmt.Println()
		fmt.Println(netPresetList())
		fmt.Println()
		fmt.Println(timelinePresetList())
		return
	}

	if err := validateAnalyzeOptions(o); err != nil {
		fmt.Fprintln(os.Stderr, "tcsb-experiments:", err)
		os.Exit(2)
	}
	if o.analyze {
		alerts, err := runAnalyze(o.archiveDir, o.expectations, *jsonOut, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcsb-experiments:", err)
			os.Exit(2)
		}
		if alerts > 0 {
			os.Exit(1)
		}
		return
	}

	req, err := buildRequest(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcsb-experiments:", err)
		os.Exit(2)
	}
	// Resolve validates the request against every registry (experiments,
	// interventions, presets, grammars) before any simulation is paid
	// for; invalid input is a diagnostic, never a panic.
	res, err := experiments.Resolve(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcsb-experiments:", err)
		os.Exit(2)
	}

	progress := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	results, err := res.Execute(progress)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcsb-experiments:", err)
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr)

	if o.archiveDir != "" {
		// Archives always hold the JSONL stream — the exact bytes the run
		// cache stores — whatever the stdout format is.
		var buf bytes.Buffer
		if err := experiments.RenderJSONL(&buf, results); err != nil {
			fmt.Fprintln(os.Stderr, "tcsb-experiments:", err)
			os.Exit(1)
		}
		if err := analyze.WriteArchive(o.archiveDir, res.Key, res.Req, buf.Bytes()); err != nil {
			fmt.Fprintln(os.Stderr, "tcsb-experiments: archive:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "archived run %s to %s\n", res.Key, o.archiveDir)
	}

	render := experiments.RenderText
	if *jsonOut {
		render = experiments.RenderJSONL
	}
	if err := render(os.Stdout, results); err != nil {
		fmt.Fprintln(os.Stderr, "tcsb-experiments:", err)
		os.Exit(1)
	}
}

// runAnalyze is the analyze-only mode: load the archive, apply the
// expectations, render the report (summary or full JSON) and return
// the alert count. Pure over its inputs, so tests drive it directly.
func runAnalyze(dir, expectations string, jsonOut bool, w io.Writer) (int, error) {
	var exp analyze.Expectations
	if expectations != "" {
		var err error
		if exp, err = analyze.LoadExpectations(expectations); err != nil {
			return 0, err
		}
	}
	runs, err := analyze.LoadArchive(dir)
	if err != nil {
		return 0, err
	}
	rep := analyze.Analyze(runs, exp)
	render := analyze.RenderSummary
	if jsonOut {
		render = analyze.RenderJSON
	}
	if err := render(w, rep); err != nil {
		return 0, err
	}
	return len(rep.Alerts), nil
}

// interventionList renders the counterfactual catalog for -list.
func interventionList() *report.Table {
	t := &report.Table{
		Title:   "Named interventions (-what-if, comma-composable)",
		Columns: []string{"name", "description"},
	}
	for _, iv := range counterfactual.All() {
		t.AddRow(iv.Name, iv.Description)
	}
	return t
}

// presetList renders the scale.* scenario family for -list.
func presetList() *report.Table {
	t := &report.Table{
		Title:   "Scale presets (-preset; streaming observation keeps them memory-feasible)",
		Columns: []string{"name", "description"},
	}
	for _, p := range scenario.ScalePresets() {
		t.AddRow(p.Name, p.Description)
	}
	return t
}

// netPresetList renders the net.* link-profile family for -list.
func netPresetList() *report.Table {
	t := &report.Table{
		Title:   "Network profiles (-net-profile; also -what-if / @epoch composable as net.*)",
		Columns: []string{"name", "spec", "description"},
	}
	for _, p := range netsim.LinkPresets() {
		t.AddRow(p.Name, p.Spec, p.Description)
	}
	return t
}

// timelinePresetList renders the timeline.* schedule family for -list.
func timelinePresetList() *report.Table {
	t := &report.Table{
		Title:   "Timeline presets (-timeline; or pass a schedule spec directly)",
		Columns: []string{"name", "schedule", "description"},
	}
	for _, p := range timeline.Presets() {
		t.AddRow(p.Name, p.Spec, p.Description)
	}
	return t
}
