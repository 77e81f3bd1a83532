package experiments

import (
	"strings"
	"testing"

	"tcsb/internal/core"
	"tcsb/internal/scenario"
	"tcsb/internal/simtest/campaign"
	"tcsb/internal/timeline"
)

// mustTimeline runs a longitudinal campaign, failing the test on the
// error path RunTimeline now reports instead of panicking.
func mustTimeline(t *testing.T, cfg scenario.Config, rc core.RunConfig, sch *timeline.Compiled) *core.TimelineResult {
	t.Helper()
	tr, err := core.RunTimeline(cfg, rc, sch, core.TimelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

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

// TestTimelineWorkerDeterminism is the longitudinal engine's headline
// guarantee, in two legs over the acceptance scenario (a 14-epoch
// timeline with the Hydra fleet dissolving at epoch 5):
//
//  1. Workers: two independently built runs — fully serial vs an
//     8-worker pool driving the sharded ticks, crawls and collection —
//     render byte-identical text and JSONL.
//  2. Warm starts: a run checkpointed at epoch 7 (built with 8 workers)
//     and resumed (with 1 worker — the resume may not even run on the
//     same pool shape) splices onto its prefix byte-identically to the
//     straight-through run, after the resume's replay verified the
//     checkpoint snapshot. A tampered checkpoint must be refused.
func TestTimelineWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds several 14-epoch campaigns")
	}
	const spec = "epochs=14;days=1;@5:hydra-dissolution"
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

	serial := mustTimeline(t, cfg, rcWith(1), sch)
	pooled := mustTimeline(t, cfg, rcWith(8), sch)
	serialText, serialJSON := renderTimeline(t, serial, 1)
	pooledText, pooledJSON := renderTimeline(t, pooled, 4)
	if serialText != pooledText {
		t.Error("timeline text output differs between campaign workers=1 and workers=8")
	}
	if serialJSON != pooledJSON {
		t.Error("timeline JSONL output differs between campaign workers=1 and workers=8")
	}
	// Handle tables must be assigned identically under both pool shapes
	// (interning is driver-serial); InternDigest pins contents and
	// insertion order beyond what the rendered output can see.
	if sd, pd := serial.Final.State.InternDigest, pooled.Final.State.InternDigest; sd == 0 || sd != pd {
		t.Errorf("handle-table digest differs between workers=1 (%#x) and workers=8 (%#x)", sd, pd)
	}
	if !strings.Contains(serialJSON, `"timeline":"`+spec+`"`) {
		t.Error("timeline JSONL rows are not tagged with the canonical schedule spec")
	}
	if !strings.Contains(serialJSON, `"experiment":"timeline.population"`) {
		t.Error("timeline JSONL stream is missing timeline experiments")
	}
	if !strings.Contains(serialJSON, `["epoch"`) {
		t.Error("timeline tables are missing the epoch column")
	}
	if got := len(serial.Epochs); got != 14 {
		t.Fatalf("straight-through run reported %d epochs, want 14", got)
	}
	if !strings.Contains(serialText, "hydra-dissolution") {
		t.Error("the scheduled intervention never surfaced in the rendered output")
	}

	// Checkpoint at epoch 7 with one pool shape, resume with another.
	prefix, err := core.RunTimeline(cfg, rcWith(8), sch, core.TimelineOptions{Until: 7})
	if err != nil {
		t.Fatal(err)
	}
	if prefix.Final.EpochsDone != 7 || len(prefix.Epochs) != 7 {
		t.Fatalf("prefix: EpochsDone=%d, %d epoch rows; want 7, 7",
			prefix.Final.EpochsDone, len(prefix.Epochs))
	}
	resumed, err := core.RunTimeline(cfg, rcWith(1), sch, core.TimelineOptions{Resume: &prefix.Final})
	if err != nil {
		t.Fatalf("resume failed verification: %v", err)
	}
	if resumed.From != 7 || len(resumed.Epochs) != 7 {
		t.Fatalf("resumed: From=%d, %d epoch rows; want 7, 7", resumed.From, len(resumed.Epochs))
	}
	spliced := &core.TimelineResult{
		Spec:     resumed.Spec,
		Schedule: resumed.Schedule,
		From:     0,
		Epochs:   append(append([]core.EpochStats(nil), prefix.Epochs...), resumed.Epochs...),
		Final:    resumed.Final,
	}
	splicedText, splicedJSON := renderTimeline(t, spliced, 2)
	if splicedText != serialText {
		t.Error("checkpoint/resume text output differs from the straight-through run")
	}
	if splicedJSON != serialJSON {
		t.Error("checkpoint/resume JSONL output differs from the straight-through run")
	}
	if resumed.Final.State.Diff(serial.Final.State) != "" {
		t.Error("resumed run's final snapshot diverges from the straight-through run's")
	}
	if rd := resumed.Final.State.InternDigest; rd != serial.Final.State.InternDigest {
		t.Errorf("checkpoint/resume handle-table digest %#x diverges from straight-through %#x", rd, serial.Final.State.InternDigest)
	}

	// A tampered checkpoint must fail the replay verification loudly.
	bad := prefix.Final
	bad.State.Digest ^= 1
	if _, err := core.RunTimeline(cfg, rcWith(1), sch, core.TimelineOptions{Resume: &bad}); err == nil ||
		!strings.Contains(err.Error(), "diverges from checkpoint") {
		t.Errorf("tampered checkpoint not refused: %v", err)
	}

	// Same for an end-of-schedule checkpoint (EpochsDone == Epochs): it
	// never hits the in-loop verification, so the post-loop check must
	// catch the tampering; the untampered one must verify and resume to
	// zero live epochs.
	done, err := core.RunTimeline(cfg, rcWith(1), sch, core.TimelineOptions{Resume: &serial.Final})
	if err != nil {
		t.Errorf("resume from a completed run's checkpoint failed verification: %v", err)
	} else if len(done.Epochs) != 0 {
		t.Errorf("resume from a completed run reported %d live epochs, want 0", len(done.Epochs))
	}
	badFinal := serial.Final
	badFinal.State.Digest ^= 1
	if _, err := core.RunTimeline(cfg, rcWith(1), sch, core.TimelineOptions{Resume: &badFinal}); err == nil ||
		!strings.Contains(err.Error(), "diverges from checkpoint") {
		t.Errorf("tampered end-of-schedule checkpoint not refused: %v", err)
	}

	// So must mismatched metadata, before any simulation is paid for.
	wrongSeed := prefix.Final
	wrongSeed.Seed = 999
	if _, err := core.RunTimeline(cfg, rcWith(1), sch, core.TimelineOptions{Resume: &wrongSeed}); err == nil {
		t.Error("checkpoint with a foreign seed not refused")
	}
	other, err := campaign.CompileSchedule("epochs=14;days=1;@6:hydra-dissolution")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunTimeline(cfg, rcWith(1), other, core.TimelineOptions{Resume: &prefix.Final}); err == nil {
		t.Error("checkpoint replayed under a different schedule not refused")
	}

	// The attack leg: scheduled @E:attack.* epochs inherit the same two
	// guarantees. The checkpoint boundary (epoch 3) sits between the two
	// attack epochs, so the resume's replay re-fires the eclipse launch
	// — sybil minting, allocator draws, table flooding and all — and the
	// spliced run must still render byte-identically.
	attackSpec := "epochs=6;days=1;@2:attack.sybil-eclipse;@4:attack.provider-spam"
	attackSch, err := campaign.CompileSchedule(attackSpec)
	if err != nil {
		t.Fatal(err)
	}
	attackSerial := mustTimeline(t, cfg, rcWith(1), attackSch)
	attackPooled := mustTimeline(t, cfg, rcWith(8), attackSch)
	attackSerialText, attackSerialJSON := renderTimeline(t, attackSerial, 1)
	attackPooledText, attackPooledJSON := renderTimeline(t, attackPooled, 4)
	if attackSerialText != attackPooledText {
		t.Error("attack timeline text output differs between campaign workers=1 and workers=8")
	}
	if attackSerialJSON != attackPooledJSON {
		t.Error("attack timeline JSONL output differs between campaign workers=1 and workers=8")
	}
	if !strings.Contains(attackSerialText, "attack.sybil-eclipse") ||
		!strings.Contains(attackSerialText, "attack.provider-spam") {
		t.Error("the scheduled attacks never surfaced in the rendered output")
	}
	attackPrefix, err := core.RunTimeline(cfg, rcWith(8), attackSch, core.TimelineOptions{Until: 3})
	if err != nil {
		t.Fatal(err)
	}
	attackResumed, err := core.RunTimeline(cfg, rcWith(1), attackSch, core.TimelineOptions{Resume: &attackPrefix.Final})
	if err != nil {
		t.Fatalf("resume through an attack epoch failed verification: %v", err)
	}
	attackSpliced := &core.TimelineResult{
		Spec:     attackResumed.Spec,
		Schedule: attackResumed.Schedule,
		From:     0,
		Epochs:   append(append([]core.EpochStats(nil), attackPrefix.Epochs...), attackResumed.Epochs...),
		Final:    attackResumed.Final,
	}
	attackSplicedText, attackSplicedJSON := renderTimeline(t, attackSpliced, 2)
	if attackSplicedText != attackSerialText {
		t.Error("attack checkpoint/resume text output differs from the straight-through run")
	}
	if attackSplicedJSON != attackSerialJSON {
		t.Error("attack checkpoint/resume JSONL output differs from the straight-through run")
	}
	if attackResumed.Final.State.Diff(attackSerial.Final.State) != "" {
		t.Error("attack resumed run's final snapshot diverges from the straight-through run's")
	}

	// The network-realism leg: scheduled @E:net.* epochs swap the link
	// impairment model mid-run (ApplyRewrite re-installs it without
	// resetting the draw streams). The checkpoint boundary (epoch 3)
	// sits after the @2 net.degraded swap, so the resume's replay
	// re-fires it — impairment draws, loss, timing-sink folds and all —
	// and both the worker pools and the splice must render
	// byte-identically. The final snapshot digests the link counters and
	// sketches, so any divergence in the latency layer is caught here.
	netSpec := "epochs=6;days=1;@2:net.degraded;@4:net.measured"
	netSch, err := campaign.CompileSchedule(netSpec)
	if err != nil {
		t.Fatal(err)
	}
	netSerial := mustTimeline(t, cfg, rcWith(1), netSch)
	netPooled := mustTimeline(t, cfg, rcWith(8), netSch)
	netSerialText, netSerialJSON := renderTimeline(t, netSerial, 1)
	netPooledText, netPooledJSON := renderTimeline(t, netPooled, 4)
	if netSerialText != netPooledText {
		t.Error("net timeline text output differs between campaign workers=1 and workers=8")
	}
	if netSerialJSON != netPooledJSON {
		t.Error("net timeline JSONL output differs between campaign workers=1 and workers=8")
	}
	if !strings.Contains(netSerialText, "net.degraded") {
		t.Error("the scheduled link-model swap never surfaced in the rendered output")
	}
	issued, _, _ := netSerial.World.Net.LinkStats()
	if issued == 0 {
		t.Error("the degraded epochs issued no impaired RPCs — the swap did not bite")
	}
	netPrefix, err := core.RunTimeline(cfg, rcWith(8), netSch, core.TimelineOptions{Until: 3})
	if err != nil {
		t.Fatal(err)
	}
	netResumed, err := core.RunTimeline(cfg, rcWith(1), netSch, core.TimelineOptions{Resume: &netPrefix.Final})
	if err != nil {
		t.Fatalf("resume through a net.degraded epoch failed verification: %v", err)
	}
	netSpliced := &core.TimelineResult{
		Spec:     netResumed.Spec,
		Schedule: netResumed.Schedule,
		From:     0,
		Epochs:   append(append([]core.EpochStats(nil), netPrefix.Epochs...), netResumed.Epochs...),
		Final:    netResumed.Final,
	}
	netSplicedText, netSplicedJSON := renderTimeline(t, netSpliced, 2)
	if netSplicedText != netSerialText {
		t.Error("net checkpoint/resume text output differs from the straight-through run")
	}
	if netSplicedJSON != netSerialJSON {
		t.Error("net checkpoint/resume JSONL output differs from the straight-through run")
	}
	if netResumed.Final.State.Diff(netSerial.Final.State) != "" {
		t.Error("net resumed run's final snapshot diverges from the straight-through run's")
	}
}

// TestRunTimelineSelection covers mode scoping and bounds on the
// timeline runner without paying for a long campaign.
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
	tr := mustTimeline(t, campaign.SmallConfig(3), rc, sch)

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
	if _, err := core.RunTimeline(campaign.SmallConfig(3), rc, sch, core.TimelineOptions{Until: -1}); err == nil {
		t.Error("negative Until accepted")
	}
	if _, err := core.RunTimeline(campaign.SmallConfig(3), rc, sch, core.TimelineOptions{Until: 3}); err == nil {
		t.Error("Until past the schedule end accepted")
	}
	if _, err := core.RunTimeline(campaign.SmallConfig(3), rc, sch, core.TimelineOptions{Resume: &tr.Final, Until: 1}); err == nil {
		t.Error("checkpoint past Until accepted")
	}
}
