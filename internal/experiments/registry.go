// Package experiments is the registry-driven experiment engine: every
// table and figure of the paper's evaluation is an Experiment value
// registered into a global catalog, and a bounded-worker runner executes
// any subset of them concurrently over one shared observatory.
//
// The registry is the single source of truth for cmd/tcsb-experiments
// (-list / -only / -parallel / -json), for the registry-driven benchmarks
// in bench_test.go, and for the paper-vs-measured record in
// EXPERIMENTS.md: adding a scenario is one Register call, after which it
// is reachable from the CLI, the benches, and the docs with no further
// wiring.
package experiments

import (
	"fmt"
	"sort"

	"tcsb/internal/core"
	"tcsb/internal/report"
)

// Experiment is one reproducible unit of the evaluation: a named
// derivation from the shared observatory to rendered tables.
type Experiment struct {
	// Name is the CLI key, e.g. "fig3" or "table1". Lower-case,
	// unique across the registry.
	Name string
	// Section anchors the experiment in the paper, e.g. "§4.1, Fig. 3".
	Section string
	// Description is the one-line summary shown by -list.
	Description string
	// Run derives the experiment from a finished observation campaign.
	// It must be a pure function of the observatory: the parallel runner
	// executes Run functions concurrently, and byte-identical output
	// across -parallel settings is a tested guarantee.
	Run func(*core.Observatory) []*report.Table
	// Delta derives a baseline-vs-intervention comparison from a paired
	// counterfactual campaign (the whatif.* entries). Delta experiments
	// execute only under RunPaired, with the same purity requirements
	// as Run.
	Delta func(baseline, whatif *core.Observatory) []*report.Table
	// Timeline derives an epoch-by-epoch view from a longitudinal
	// campaign (the timeline.* entries), executing only under
	// RunTimeline. Exactly one of Run, Delta and Timeline must be set.
	Timeline func(*core.TimelineResult) []*report.Table
}

// Mode is an experiment's execution mode: which kind of campaign it
// derives from, and therefore which CLI mode can run it.
type Mode int

const (
	// ModeRun is a plain single-campaign experiment.
	ModeRun Mode = iota
	// ModeDelta is a paired counterfactual (whatif.*) experiment.
	ModeDelta
	// ModeTimeline is a longitudinal (timeline.*) experiment.
	ModeTimeline
)

// String names the mode by the CLI flag that invokes it.
func (m Mode) String() string {
	switch m {
	case ModeDelta:
		return "-what-if"
	case ModeTimeline:
		return "-timeline"
	default:
		return "plain"
	}
}

// Kind returns the experiment's execution mode.
func (e Experiment) Kind() Mode {
	switch {
	case e.Delta != nil:
		return ModeDelta
	case e.Timeline != nil:
		return ModeTimeline
	default:
		return ModeRun
	}
}

// The catalog preserves registration order (= paper order), which is the
// order results are reported in regardless of execution interleaving.
var (
	catalog []Experiment
	byName  = make(map[string]bool)
)

// Register adds an experiment to the global catalog. It panics on an
// invalid or duplicate registration: the catalog is assembled in package
// init and a bad entry is a programming error.
func Register(e Experiment) {
	kinds := 0
	for _, set := range []bool{e.Run != nil, e.Delta != nil, e.Timeline != nil} {
		if set {
			kinds++
		}
	}
	if e.Name == "" || kinds != 1 {
		panic("experiments: Register needs a name and exactly one of Run/Delta/Timeline")
	}
	if byName[e.Name] {
		panic(fmt.Sprintf("experiments: duplicate registration of %q", e.Name))
	}
	byName[e.Name] = true
	catalog = append(catalog, e)
}

// All returns the registered experiments in registration order.
func All() []Experiment {
	return append([]Experiment(nil), catalog...)
}

// Select resolves a set of names to experiments in registration order
// (not in request order, so output order never depends on flag spelling).
// An empty selection means all. Unknown names are reported together.
func Select(names []string) ([]Experiment, error) {
	if len(names) == 0 {
		return All(), nil
	}
	want := make(map[string]bool, len(names))
	var unknown []string
	for _, n := range names {
		if !byName[n] {
			unknown = append(unknown, n)
			continue
		}
		want[n] = true
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiments %v; -list shows the catalog", unknown)
	}
	var out []Experiment
	for _, e := range catalog {
		if want[e.Name] {
			out = append(out, e)
		}
	}
	return out, nil
}

// SelectFor resolves names like Select but scoped to one execution mode:
// an empty selection means every experiment of the wanted kind, while an
// explicit name of the wrong kind is an error (a whatif.* entry cannot
// run without a paired campaign, a timeline.* entry cannot run without
// a schedule, and vice versa). The CLI validates with it before paying
// for the simulation.
func SelectFor(names []string, mode Mode) ([]Experiment, error) {
	exps, err := Select(names)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		var out []Experiment
		for _, e := range exps {
			if e.Kind() == mode {
				out = append(out, e)
			}
		}
		return out, nil
	}
	for _, e := range exps {
		if e.Kind() == mode {
			continue
		}
		switch e.Kind() {
		case ModeDelta:
			return nil, fmt.Errorf("experiment %q is a counterfactual delta; it needs -what-if", e.Name)
		case ModeTimeline:
			return nil, fmt.Errorf("experiment %q is longitudinal; it needs -timeline", e.Name)
		default:
			return nil, fmt.Errorf("experiment %q is not a %s experiment; run it without that flag", e.Name, mode)
		}
	}
	return exps, nil
}
