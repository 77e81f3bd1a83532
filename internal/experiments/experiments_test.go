package experiments

import (
	"strings"
	"testing"

	_ "tcsb/internal/attack" // registers the attack.* interventions
	"tcsb/internal/core"
	"tcsb/internal/counterfactual"
	"tcsb/internal/scenario"
	"tcsb/internal/simtest/campaign"
)

// paperUnits is the full set of evaluation units in the paper: every one
// must have a registered experiment. A figure added to the paper coverage
// without a Register() call fails here.
var paperUnits = []string{
	"table1", "section3",
	"fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"churn", "section5",
	"fig9", "fig10", "fig11", "fig12", "fig13",
	"fig14", "fig15", "fig16",
	"fig17", "fig18", "fig19", "fig20",
	"latency.gateway", "latency.lookup", "latency.crawl",
}

// whatifUnits is the counterfactual delta catalog: paired experiments
// that diff a baseline campaign against an intervention campaign.
var whatifUnits = []string{
	"whatif.section3", "whatif.fig3", "whatif.fig8",
	"whatif.section5", "whatif.fig11", "whatif.fig13", "whatif.fig16",
	"whatif.attack.surface", "whatif.attack.resilience",
}

// timelineUnits is the longitudinal catalog: epoch-by-epoch experiments
// that derive from a scheduled multi-epoch campaign.
var timelineUnits = []string{
	"timeline.schedule", "timeline.population", "timeline.content",
	"timeline.vantage", "timeline.crawl", "timeline.digest",
}

func registrySize() int { return len(paperUnits) + len(whatifUnits) + len(timelineUnits) }

func TestRegistryCompleteness(t *testing.T) {
	have := make(map[string]Experiment)
	for _, e := range All() {
		have[e.Name] = e
	}
	for _, want := range paperUnits {
		if _, ok := have[want]; !ok {
			t.Errorf("paper unit %q has no registered experiment", want)
		}
	}
	for _, want := range whatifUnits {
		e, ok := have[want]
		if !ok {
			t.Errorf("counterfactual unit %q has no registered experiment", want)
		}
		if e.Kind() != ModeDelta {
			t.Errorf("counterfactual unit %q must be a Delta experiment", want)
		}
	}
	for _, want := range timelineUnits {
		e, ok := have[want]
		if !ok {
			t.Errorf("timeline unit %q has no registered experiment", want)
		}
		if e.Kind() != ModeTimeline {
			t.Errorf("timeline unit %q must be a Timeline experiment", want)
		}
	}
	if len(have) != registrySize() {
		t.Errorf("registry has %d experiments, coverage lists %d — update paperUnits/whatifUnits/timelineUnits or the catalog",
			len(have), registrySize())
	}
	for _, e := range All() {
		if e.Section == "" || e.Description == "" {
			t.Errorf("experiment %q missing section or description", e.Name)
		}
		if e.Name != strings.ToLower(e.Name) {
			t.Errorf("experiment name %q must be lower-case (it is a CLI key)", e.Name)
		}
		if (e.Kind() == ModeDelta) != strings.HasPrefix(e.Name, "whatif.") {
			t.Errorf("experiment %q: the whatif. prefix and the Delta kind must coincide", e.Name)
		}
		if (e.Kind() == ModeTimeline) != strings.HasPrefix(e.Name, "timeline.") {
			t.Errorf("experiment %q: the timeline. prefix and the Timeline kind must coincide", e.Name)
		}
	}
}

func TestLookupAndSelect(t *testing.T) {
	if got, err := Select([]string{"fig3"}); err != nil || len(got) != 1 || got[0].Name != "fig3" {
		t.Fatalf("Select(fig3) = %v, %v", got, err)
	}
	if _, err := Select([]string{"fig999", "fig3"}); err == nil || !strings.Contains(err.Error(), "fig999") {
		t.Fatalf("Select(fig999) should name the unknown experiment, got %v", err)
	}
	all, err := Select(nil)
	if err != nil || len(all) != registrySize() {
		t.Fatalf("empty selection: %d experiments, err=%v", len(all), err)
	}
	// Mode-scoped selection: empty names filter by kind, explicit names of
	// the wrong kind are rejected with a pointer at the right mode.
	plain, err := SelectFor(nil, ModeRun)
	if err != nil || len(plain) != len(paperUnits) {
		t.Fatalf("SelectFor(run): %d experiments, err=%v", len(plain), err)
	}
	deltas, err := SelectFor(nil, ModeDelta)
	if err != nil || len(deltas) != len(whatifUnits) {
		t.Fatalf("SelectFor(delta): %d experiments, err=%v", len(deltas), err)
	}
	timelines, err := SelectFor(nil, ModeTimeline)
	if err != nil || len(timelines) != len(timelineUnits) {
		t.Fatalf("SelectFor(timeline): %d experiments, err=%v", len(timelines), err)
	}
	if _, err := SelectFor([]string{"whatif.fig3"}, ModeRun); err == nil ||
		!strings.Contains(err.Error(), "-what-if") {
		t.Fatalf("whatif.* without paired mode should point at -what-if, got %v", err)
	}
	if _, err := SelectFor([]string{"timeline.population"}, ModeRun); err == nil ||
		!strings.Contains(err.Error(), "-timeline") {
		t.Fatalf("timeline.* without a schedule should point at -timeline, got %v", err)
	}
	if _, err := SelectFor([]string{"fig3"}, ModeDelta); err == nil {
		t.Fatal("plain experiment in paired mode should error")
	}
	if _, err := SelectFor([]string{"fig3"}, ModeTimeline); err == nil {
		t.Fatal("plain experiment in timeline mode should error")
	}
	// Selection order follows registration order, not request order.
	sel, err := Select([]string{"fig5", "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].Name != "table1" || sel[1].Name != "fig5" {
		t.Fatalf("selection = %v, want [table1 fig5]", sel)
	}
	if _, err := Select([]string{"fig3", "nope", "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "bogus") || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown names should be reported together, got %v", err)
	}
}

func TestRegisterRejectsBadEntries(t *testing.T) {
	expectPanic := func(name string, e Experiment) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(e)
	}
	expectPanic("empty", Experiment{})
	expectPanic("duplicate", Experiment{Name: "fig3", Run: runFig3})
	expectPanic("both kinds", Experiment{Name: "x", Run: runFig3, Delta: deltaFig3})
	expectPanic("no kind", Experiment{Name: "x"})
}

// smallObservatory builds a fast campaign for engine tests, using the
// shared simtest fixture shapes but building fresh every call — the
// determinism tests below need *independently built* observatories, so
// they must bypass the simtest cache on purpose.
func smallObservatory(seed int64) *core.Observatory {
	return smallObservatoryWorkers(seed, 1)
}

func smallObservatoryWorkers(seed int64, workers int) *core.Observatory {
	rc := campaign.SmallRunConfig()
	rc.Workers = workers
	return core.Observe(scenario.NewWorld(campaign.SmallConfig(seed)), rc)
}

// renderAll runs the full catalog and renders both output formats.
func renderAll(t *testing.T, o *core.Observatory, parallel int) (string, string) {
	t.Helper()
	results, err := Run(o, nil, parallel)
	if err != nil {
		t.Fatal(err)
	}
	var text, jsonl strings.Builder
	if err := RenderText(&text, results); err != nil {
		t.Fatal(err)
	}
	if err := RenderJSONL(&jsonl, results); err != nil {
		t.Fatal(err)
	}
	return text.String(), jsonl.String()
}

// TestCampaignWorkerDeterminism extends the engine's determinism
// guarantee down into the observation campaign: two observatories built
// independently — one fully serial, one on an 8-worker pool driving the
// sharded world ticks, parallel crawl sweeps and fanned-out provider
// collection — must render byte-identical text and JSONL for the whole
// catalog. The same holds for paired counterfactual campaigns: under
// -what-if hydra-dissolution, workers=1 and workers=8 (the latter
// splitting the pool across the baseline and intervention worlds running
// concurrently) must render byte-identical delta streams. This is the
// test behind the CLI's contract that stdout is identical for every
// -workers value.
func TestCampaignWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds several observation campaigns")
	}
	serialObs := smallObservatoryWorkers(5, 1)
	pooledObs := smallObservatoryWorkers(5, 8)
	serialText, serialJSON := renderAll(t, serialObs, 1)
	pooledText, pooledJSON := renderAll(t, pooledObs, 4)
	if serialText != pooledText {
		t.Error("text output differs between campaign workers=1 and workers=8")
	}
	if serialJSON != pooledJSON {
		t.Error("JSONL output differs between campaign workers=1 and workers=8")
	}
	// The interning contract: dense handle assignment happens only at
	// driver-serial points, so the handle tables — contents *and*
	// insertion order — must be identical for every pool shape, not just
	// the rendered output derived from them.
	sd, pd := serialObs.World.Intern.Digest(), pooledObs.World.Intern.Digest()
	if sd != pd {
		t.Errorf("handle-table digest differs between campaign workers=1 (%#x) and workers=8 (%#x)", sd, pd)
	}

	// The -what-if hydra-dissolution leg: independently built pairs.
	renderPaired := func(spec string, workers, parallel int) (string, string) {
		ivs, err := counterfactual.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		rc := campaign.SmallRunConfig()
		rc.Workers = workers
		baseline, whatif := counterfactual.Observe(campaign.SmallConfig(5), rc, ivs)
		results, err := RunPaired(baseline, whatif, counterfactual.NamesOf(ivs), nil, parallel)
		if err != nil {
			t.Fatal(err)
		}
		var text, jsonl strings.Builder
		if err := RenderText(&text, results); err != nil {
			t.Fatal(err)
		}
		if err := RenderJSONL(&jsonl, results); err != nil {
			t.Fatal(err)
		}
		return text.String(), jsonl.String()
	}
	pairSerialText, pairSerialJSON := renderPaired("hydra-dissolution", 1, 1)
	pairPooledText, pairPooledJSON := renderPaired("hydra-dissolution", 8, 4)
	if pairSerialText != pairPooledText {
		t.Error("what-if text output differs between campaign workers=1 and workers=8")
	}
	if pairSerialJSON != pairPooledJSON {
		t.Error("what-if JSONL output differs between campaign workers=1 and workers=8")
	}
	if !strings.Contains(pairSerialJSON, `"whatif":["hydra-dissolution"]`) {
		t.Error("paired JSONL rows are not tagged with the intervention")
	}
	if !strings.Contains(pairSerialJSON, `"experiment":"whatif.fig13"`) {
		t.Error("paired JSONL stream is missing delta experiments")
	}

	// The attack leg: a composed adversarial campaign must honour the
	// same stdout contract — sybil launches, record spam and gateway
	// stampedes all run on the serial phase in tick arithmetic, so
	// workers=1 and workers=8 render byte-identical delta streams.
	attackSpec := "attack.sybil-eclipse,attack.provider-spam,attack.gateway-stampede"
	attackSerialText, attackSerialJSON := renderPaired(attackSpec, 1, 1)
	attackPooledText, attackPooledJSON := renderPaired(attackSpec, 8, 4)
	if attackSerialText != attackPooledText {
		t.Error("attack text output differs between campaign workers=1 and workers=8")
	}
	if attackSerialJSON != attackPooledJSON {
		t.Error("attack JSONL output differs between campaign workers=1 and workers=8")
	}
	if !strings.Contains(attackSerialJSON,
		`"whatif":["attack.sybil-eclipse","attack.provider-spam","attack.gateway-stampede"]`) {
		t.Error("attack JSONL rows are not tagged with the composed intervention")
	}
	if !strings.Contains(attackSerialJSON, `"experiment":"whatif.attack.surface"`) {
		t.Error("attack JSONL stream is missing the attack-surface delta experiment")
	}
	if !strings.Contains(attackSerialJSON, `"attacker identities minted","0","72","+72"`) {
		t.Error("attack-surface delta does not show the minted sybil swarm")
	}

	// Streaming vs retained: RetainTrace keeps raw logs next to the
	// streaming accumulators but must not change a byte of rendered
	// output (the analyses read the accumulators in both modes).
	retainedCfg := campaign.SmallConfig(5)
	retainedCfg.RetainTrace = true
	retainedRC := campaign.SmallRunConfig()
	retainedRC.Workers = 1
	retained := core.Observe(scenario.NewWorld(retainedCfg), retainedRC)
	retainedText, retainedJSON := renderAll(t, retained, 1)
	if retainedText != serialText {
		t.Error("text output differs between streaming and retained-trace campaigns")
	}
	if retainedJSON != serialJSON {
		t.Error("JSONL output differs between streaming and retained-trace campaigns")
	}

	// The net.measured leg: impaired links draw from per-(lane, seq)
	// hash streams, so the stdout contract survives latency and loss —
	// workers=1 and workers=8 render byte-identical catalogs.
	netObservatory := func(profile string, workers int) *core.Observatory {
		cfg := campaign.SmallConfig(5)
		cfg.NetProfile = profile
		rc := campaign.SmallRunConfig()
		rc.Workers = workers
		return core.Observe(scenario.NewWorld(cfg), rc)
	}
	netSerialText, netSerialJSON := renderAll(t, netObservatory("net.measured", 1), 1)
	netPooledText, netPooledJSON := renderAll(t, netObservatory("net.measured", 8), 4)
	if netSerialText != netPooledText {
		t.Error("net.measured text output differs between campaign workers=1 and workers=8")
	}
	if netSerialJSON != netPooledJSON {
		t.Error("net.measured JSONL output differs between campaign workers=1 and workers=8")
	}
	if netSerialText == serialText {
		t.Error("net.measured campaign rendered the ideal campaign's bytes — the link model is not biting")
	}

	// And the acceptance pin: an explicit net.ideal profile is the exact
	// identity — byte-for-byte the default campaign's output.
	idealText, idealJSON := renderAll(t, netObservatory("net.ideal", 1), 1)
	if idealText != serialText {
		t.Error("explicit net.ideal text differs from the default campaign")
	}
	if idealJSON != serialJSON {
		t.Error("explicit net.ideal JSONL differs from the default campaign")
	}
}

// TestScalePresetWorkerDeterminism extends the stdout contract to the
// scale.* scenario family: a preset-scaled campaign (streaming is what
// makes these worlds affordable) renders byte-identically for every
// campaign worker count.
func TestScalePresetWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two scaled observation campaigns")
	}
	preset, ok := scenario.LookupScale("scale.2x")
	if !ok {
		t.Fatal("scale.2x preset not registered")
	}
	build := func(workers int) *core.Observatory {
		cfg := preset.Apply(campaign.SmallConfig(5))
		rc := campaign.SmallRunConfig()
		rc.Workers = workers
		return core.Observe(scenario.NewWorld(cfg), rc)
	}
	serialText, serialJSON := renderAll(t, build(1), 1)
	pooledText, pooledJSON := renderAll(t, build(8), 4)
	if serialText != pooledText {
		t.Error("scale.2x text output differs between campaign workers=1 and workers=8")
	}
	if serialJSON != pooledJSON {
		t.Error("scale.2x JSONL output differs between campaign workers=1 and workers=8")
	}
}

// TestParallelDeterminism is the engine's headline guarantee: for the
// same seed, rendered output (text and JSONL) is byte-identical whether
// the catalog runs serially or with 8 workers — across two independently
// built observatories, so memoization cannot leak execution order into
// results.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two observation campaigns")
	}
	render := func(o *core.Observatory, parallel int) (string, string) {
		results, err := Run(o, nil, parallel)
		if err != nil {
			t.Fatal(err)
		}
		var text, jsonl strings.Builder
		if err := RenderText(&text, results); err != nil {
			t.Fatal(err)
		}
		if err := RenderJSONL(&jsonl, results); err != nil {
			t.Fatal(err)
		}
		return text.String(), jsonl.String()
	}
	serialText, serialJSON := render(smallObservatory(5), 1)
	parallelText, parallelJSON := render(smallObservatory(5), 8)
	if serialText != parallelText {
		t.Error("text output differs between -parallel 1 and -parallel 8")
	}
	if serialJSON != parallelJSON {
		t.Error("JSONL output differs between -parallel 1 and -parallel 8")
	}
	if !strings.Contains(serialJSON, `"experiment":"fig20"`) {
		t.Error("JSONL stream is missing experiments")
	}
	// Sanity: every experiment produced at least one table.
	results, err := Run(smallObservatory(5), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if len(r.Tables) == 0 {
			t.Errorf("experiment %q produced no tables", r.Experiment.Name)
		}
	}
}

func TestRunSubsetOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an observation campaign")
	}
	o := smallObservatory(7)
	results, err := Run(o, []string{"section5", "fig3", "table1"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(results))
	for i, r := range results {
		got[i] = r.Experiment.Name
	}
	want := []string{"table1", "fig3", "section5"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result order = %v, want %v", got, want)
		}
	}
	if _, err := Run(o, []string{"figX"}, 1); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestListTable(t *testing.T) {
	tbl := ListTable()
	if len(tbl.Rows) != registrySize() {
		t.Fatalf("list has %d rows, want %d", len(tbl.Rows), registrySize())
	}
	if tbl.Rows[0][0] != "table1" {
		t.Fatalf("first listed experiment = %q, want table1", tbl.Rows[0][0])
	}
}
