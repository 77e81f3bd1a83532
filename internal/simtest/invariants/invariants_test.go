package invariants

import (
	"fmt"
	"testing"

	"tcsb/internal/core"
	"tcsb/internal/counterfactual"
	"tcsb/internal/scenario"
	"tcsb/internal/simtest/campaign"
)

// The property suite: every invariant, over seeds 1-5, on the baseline
// world AND on every registered intervention world. Campaigns are the
// small fixture shape (scale 0.08, one simulated day) built fresh per
// (seed, intervention) with a multi-worker pool, so the suite doubles
// as a concurrency exercise under -race.
//
// Worlds are built with RetainTrace so every campaign carries both the
// streaming accumulators and the raw logs: alongside the conservation
// laws, checkAll pins the sink-vs-log equivalence property — streaming
// results must equal batch results — on the baseline and on every
// intervention world.

const seeds = 5

// retainedConfig is the small fixture config with raw-trace retention
// on from world construction (equivalence needs both views complete).
func retainedConfig(seed int64) scenario.Config {
	cfg := campaign.SmallConfig(seed)
	cfg.RetainTrace = true
	return cfg
}

func observeWorld(w *scenario.World) *core.Observatory {
	rc := campaign.SmallRunConfig()
	rc.Workers = 2
	return core.Observe(w, rc)
}

func checkAll(t *testing.T, label string, o *core.Observatory) {
	t.Helper()
	for _, v := range CheckObservatory(o) {
		t.Errorf("%s: %s", label, v)
	}
	for _, v := range CheckStreamingEquivalence(o) {
		t.Errorf("%s: %s", label, v)
	}
	for _, v := range CheckLatency(o) {
		t.Errorf("%s: %s", label, v)
	}
}

func TestInvariantsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds observation campaigns")
	}
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			w := scenario.NewWorld(retainedConfig(seed))
			checkAll(t, "baseline", observeWorld(w))
		})
	}
}

func TestInvariantsInterventions(t *testing.T) {
	if testing.Short() {
		t.Skip("builds observation campaigns")
	}
	for _, iv := range counterfactual.All() {
		iv := iv
		t.Run(iv.Name, func(t *testing.T) {
			for seed := int64(1); seed <= seeds; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					t.Parallel()
					w := counterfactual.BuildWorld(retainedConfig(seed), []counterfactual.Intervention{iv})
					checkAll(t, iv.Name, observeWorld(w))
				})
			}
		})
	}
}

// TestInvariantsComposedIntervention covers composition: the invariants
// must survive interventions stacking, not just applying alone.
func TestInvariantsComposedIntervention(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an observation campaign")
	}
	ivs, err := counterfactual.Parse("aws-outage,churn-2x,gateway-surge")
	if err != nil {
		t.Fatal(err)
	}
	w := counterfactual.BuildWorld(retainedConfig(3), ivs)
	if w.PinnedOfflineCount() == 0 {
		t.Fatal("composed intervention did not bite")
	}
	checkAll(t, "aws-outage,churn-2x,gateway-surge", observeWorld(w))
}

// TestViolationsAreDetected guards the harness itself: a world whose
// state is corrupted must produce violations, or a silently vacuous
// suite would pass forever.
func TestViolationsAreDetected(t *testing.T) {
	w := scenario.NewWorld(campaign.SmallConfig(1))
	// Corrupt the liveness agreement behind the scenario's back.
	var victim *scenario.Actor
	for _, a := range w.Actors {
		if a.Online {
			victim = a
			break
		}
	}
	w.Net.SetOnline(victim.ID, false)
	found := false
	for _, v := range CheckWorld(w) {
		if v.Invariant == "liveness-agreement" {
			found = true
		}
	}
	if !found {
		t.Fatal("corrupted liveness not detected")
	}
	if s := CheckWorld(w)[0].String(); s == "" {
		t.Fatal("violations must render")
	}
}
