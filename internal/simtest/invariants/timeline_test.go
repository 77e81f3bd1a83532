package invariants

import (
	"fmt"
	"testing"

	"tcsb/internal/core"
	"tcsb/internal/counterfactual"
	"tcsb/internal/scenario"
	"tcsb/internal/simtest/campaign"
)

// The epoch-boundary property suite: every world invariant must hold
// not just at the end of a campaign but at *every* epoch boundary of a
// longitudinal run — before and after each scheduled event fires —
// over seeds 1-5, on a quiet baseline schedule AND on one schedule per
// registered intervention (fired mid-run at epoch 1 of 3). Campaigns
// run on a multi-worker pool, so the suite doubles as a concurrency
// exercise under -race, exactly like the single-campaign invariants.
//
// CI runs this file by name under -race (see .github/workflows/ci.yml).

// timelineRunConfig is the small-fixture campaign shape driving the
// epoch loops on two workers.
func timelineRunConfig() core.RunConfig {
	rc := campaign.SmallRunConfig()
	rc.Workers = 2
	return rc
}

func checkEpochBoundaries(t *testing.T, label, spec string, seed int64) {
	t.Helper()
	sch, err := campaign.CompileSchedule(spec)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	boundaries := 0
	core.RunTimeline(campaign.SmallConfig(seed), timelineRunConfig(), sch,
		core.TimelineOptions{OnEpoch: func(epoch int, w *scenario.World) {
			boundaries++
			for _, v := range CheckWorld(w) {
				t.Errorf("%s: epoch %d boundary: %s", label, epoch, v)
			}
		}})
	if boundaries != sch.Schedule().Epochs {
		t.Errorf("%s: hook fired at %d boundaries, want %d", label, boundaries, sch.Schedule().Epochs)
	}
}

func TestInvariantsEpochBoundaries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds multi-epoch observation campaigns")
	}
	cases := []struct{ label, spec string }{
		{"baseline", "epochs=3"},
		// Population drift without any registered intervention.
		{"drift", "epochs=3;@1:arrive:choopa:12;@2:depart:vultr"},
	}
	for _, iv := range counterfactual.All() {
		if iv.ConstructionOnly {
			// Construction-only rewrites cannot fire mid-run; the
			// resolver must refuse them rather than no-op silently.
			if _, err := campaign.CompileSchedule(fmt.Sprintf("epochs=3;@1:%s", iv.Name)); err == nil {
				t.Errorf("construction-only intervention %q compiled into a schedule", iv.Name)
			}
			continue
		}
		cases = append(cases, struct{ label, spec string }{
			iv.Name, fmt.Sprintf("epochs=3;@1:%s", iv.Name),
		})
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.label, func(t *testing.T) {
			for seed := int64(1); seed <= seeds; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					t.Parallel()
					checkEpochBoundaries(t, tc.label, tc.spec, seed)
				})
			}
		})
	}
}
