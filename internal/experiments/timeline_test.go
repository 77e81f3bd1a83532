package experiments

import (
	"strings"
	"testing"

	"tcsb/internal/core"
	"tcsb/internal/simtest/campaign"
)

// renderTimeline runs the full timeline.* catalog over a result and
// renders both output formats.
func renderTimeline(t *testing.T, tr *core.TimelineResult, parallel int) (string, string) {
	t.Helper()
	results, err := RunTimeline(tr, nil, parallel)
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

// workerPair runs spec fully serially and on an 8-worker pool driving
// the sharded ticks, crawls and collection, checks that the two render
// byte-identical text and JSONL and end in equal world snapshots, and
// returns the serial run with its text and JSONL. The snapshot check
// covers InternDigest: handle tables must be assigned identically under
// both pool shapes (interning is driver-serial), beyond what the
// rendered output can see.
func workerPair(t *testing.T, spec string) (*core.TimelineResult, string, string) {
	t.Helper()
	sch, err := campaign.CompileSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaign.SmallConfig(5)
	rcWith := func(workers int) core.RunConfig {
		rc := campaign.SmallRunConfig()
		rc.Workers = workers
		return rc
	}
	serial := core.RunTimeline(cfg, rcWith(1), sch, core.TimelineOptions{})
	pooled := core.RunTimeline(cfg, rcWith(8), sch, core.TimelineOptions{})
	serialText, serialJSON := renderTimeline(t, serial, 1)
	pooledText, pooledJSON := renderTimeline(t, pooled, 4)
	if serialText != pooledText {
		t.Errorf("%s: text output differs between campaign workers=1 and workers=8", spec)
	}
	if serialJSON != pooledJSON {
		t.Errorf("%s: JSONL output differs between campaign workers=1 and workers=8", spec)
	}
	if s, p := serial.World.Snapshot(), pooled.World.Snapshot(); s != p || s.InternDigest == 0 {
		t.Errorf("%s: final snapshot differs between workers=1 and workers=8:\n%+v\n%+v", spec, s, p)
	}
	return serial, serialText, serialJSON
}

// TestTimelineWorkerDeterminism is the longitudinal engine's headline
// guarantee: a timeline renders the same bytes and evolves the same
// world for every campaign worker count. Three legs: the acceptance
// scenario (a 14-epoch timeline with the Hydra fleet dissolving at
// epoch 5), two scheduled attacks, and two mid-run link-model swaps.
func TestTimelineWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds six timeline campaigns")
	}
	const spec = "epochs=14;days=1;@5:hydra-dissolution"
	serial, text, jsonl := workerPair(t, spec)
	if !strings.Contains(jsonl, `"timeline":"`+spec+`"`) {
		t.Error("timeline JSONL rows are not tagged with the canonical schedule spec")
	}
	if !strings.Contains(jsonl, `"experiment":"timeline.population"`) {
		t.Error("timeline JSONL stream is missing timeline experiments")
	}
	if !strings.Contains(jsonl, `["epoch"`) {
		t.Error("timeline tables are missing the epoch column")
	}
	if got := len(serial.Epochs); got != 14 {
		t.Fatalf("run reported %d epochs, want 14", got)
	}
	if !strings.Contains(text, "hydra-dissolution") {
		t.Error("the scheduled intervention never surfaced in the rendered output")
	}

	// The attack leg: the eclipse launch (sybil minting, allocator
	// draws, table flooding) and the spam flood fire at epoch boundaries.
	_, text, _ = workerPair(t, "epochs=6;days=1;@2:attack.sybil-eclipse;@4:attack.provider-spam")
	if !strings.Contains(text, "attack.sybil-eclipse") || !strings.Contains(text, "attack.provider-spam") {
		t.Error("the scheduled attacks never surfaced in the rendered output")
	}

	// The network-realism leg: scheduled @E:net.* epochs swap the link
	// impairment model mid-run (ApplyRewrite re-installs it without
	// resetting the draw streams). The snapshot digests the link
	// counters and timing sketches, so any divergence in the latency
	// layer is caught.
	netRun, text, _ := workerPair(t, "epochs=6;days=1;@2:net.degraded;@4:net.measured")
	if !strings.Contains(text, "net.degraded") {
		t.Error("the scheduled link-model swap never surfaced in the rendered output")
	}
	if issued, _, _ := netRun.World.Net.LinkStats(); issued == 0 {
		t.Error("the degraded epochs issued no impaired RPCs — the swap did not bite")
	}
}

// TestRunTimelineSelection covers mode scoping on the timeline runner
// without paying for a long campaign.
func TestRunTimelineSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a small timeline campaign")
	}
	sch, err := campaign.CompileSchedule("epochs=2;@1:churn:2")
	if err != nil {
		t.Fatal(err)
	}
	rc := campaign.SmallRunConfig()
	rc.Workers = 2
	tr := core.RunTimeline(campaign.SmallConfig(3), rc, sch, core.TimelineOptions{})

	results, err := RunTimeline(tr, []string{"timeline.population", "timeline.schedule"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Experiment.Name != "timeline.schedule" {
		t.Fatalf("selection order/size wrong: %+v", results)
	}
	for _, r := range results {
		if r.Timeline != tr.Spec {
			t.Errorf("result %q missing the timeline tag", r.Experiment.Name)
		}
	}
	if _, err := RunTimeline(tr, []string{"fig3"}, 1); err == nil {
		t.Error("plain experiment accepted by the timeline runner")
	}
}
