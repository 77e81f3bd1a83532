package invariants

import (
	"fmt"
	"math"
	"testing"

	"tcsb/internal/core"
	"tcsb/internal/scenario"
	"tcsb/internal/simtest/campaign"
	"tcsb/internal/stats"
	"tcsb/internal/trace"
)

// CheckLatency verifies the network-realism conservation laws on an
// observed campaign:
//
//   - loss-conservation: every RPC the link model saw was either
//     dropped or delivered — issued == dropped + delivered;
//   - latency-accrual: counters and accrued virtual time never go
//     negative, and the identity profile accrues nothing at all;
//   - timing-containment: the per-phase sinks can only account for
//     virtual time the network actually charged;
//   - sketch-exact-equivalence (retained campaigns only): each phase's
//     bounded sketch agrees with the exact percentiles of the retained
//     raw samples — exactly below the sketch's spill threshold; above
//     it, within one order statistic plus the sketch's published
//     relative error bound.
func CheckLatency(o *core.Observatory) []Violation {
	var vs violations
	w := o.World

	issued, dropped, delivered := w.Net.LinkStats()
	if issued != dropped+delivered {
		vs.addf("loss-conservation", "issued %d != dropped %d + delivered %d",
			issued, dropped, delivered)
	}
	elapsed := w.Net.LinkElapsedUS()
	if issued < 0 || dropped < 0 || delivered < 0 || elapsed < 0 {
		vs.addf("latency-accrual", "negative link counter: %d/%d/%d elapsed=%d",
			issued, dropped, delivered, elapsed)
	}
	if w.Net.LinkModel().IsZero() && (issued != 0 || elapsed != 0) {
		vs.addf("latency-accrual", "identity profile accrued %d RPCs / %dµs",
			issued, elapsed)
	}

	var phaseSum float64
	for _, p := range trace.Phases() {
		sk := w.Timing.Sketch(p)
		phaseSum += sk.Sum()
		if sk.Min() < 0 {
			vs.addf("latency-accrual", "phase %s recorded a negative duration %v", p, sk.Min())
		}
	}
	// Phases bracket disjoint operations (requests, crawls, probes), and
	// some link time (topology maintenance, Hydra drains) is deliberately
	// unbracketed — so the sinks can at most account for the total.
	if phaseSum > float64(elapsed)+0.5 {
		vs.addf("timing-containment", "phase sums %vµs exceed network total %dµs",
			phaseSum, elapsed)
	}

	if w.Cfg.RetainTrace {
		for _, p := range trace.Phases() {
			sk := w.Timing.Sketch(p)
			raw := w.Timing.Raw(p)
			if uint64(len(raw)) != sk.Count() {
				vs.addf("sketch-exact-equivalence", "phase %s: %d raw samples vs sketch count %d",
					p, len(raw), sk.Count())
				continue
			}
			if len(raw) == 0 {
				continue
			}
			// The sketch's rank is within one order statistic of the
			// interpolated exact rank, and its bucket midpoint is within
			// the published relative bound of that sample — so the value
			// must land in the one-rank neighbourhood of the exact
			// quantile, widened by the bucket error. In the exact regime
			// (no spill) the bound is 0 and the neighbourhood collapses
			// to equality for integral ranks.
			bound := sk.RelativeErrorBound()
			step := 100.0 / float64(max(len(raw)-1, 1)) // one rank, in percentile points
			for _, q := range []float64{10, 50, 90, 95, 99} {
				lo := stats.Percentile(raw, math.Max(0, q-step))
				hi := stats.Percentile(raw, math.Min(100, q+step))
				got := sk.Quantile(q)
				if got < lo-bound*math.Abs(lo)-1e-9 || got > hi+bound*math.Abs(hi)+1e-9 {
					vs.addf("sketch-exact-equivalence",
						"phase %s p%v: sketch %v outside exact neighbourhood [%v, %v] (bound %v, %d samples)",
						p, q, got, lo, hi, bound, len(raw))
				}
			}
		}
	}
	return vs
}

// The network-realism leg of the property suite. The generic
// TestInvariantsInterventions already drives the net.* interventions
// (they are registered counterfactuals) through checkAll — which
// includes CheckLatency — over seeds 1-5; the tests here add the laws
// that need a hand on the clock: per-tick virtual-time monotonicity and
// the retained sketch-vs-exact equivalence on impaired worlds.

// netConfig is the small retained fixture under a named link profile.
func netConfig(seed int64, profile string) scenario.Config {
	cfg := retainedConfig(seed)
	cfg.NetProfile = profile
	return cfg
}

// TestLatencyInvariantsImpairedWorlds runs the full latency check —
// loss conservation, containment, sketch-vs-exact on the retained raw
// samples — on observed campaigns under both impaired presets.
func TestLatencyInvariantsImpairedWorlds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds observation campaigns")
	}
	for _, profile := range []string{"net.measured", "net.degraded"} {
		profile := profile
		t.Run(profile, func(t *testing.T) {
			for seed := int64(1); seed <= seeds; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					t.Parallel()
					w := scenario.NewWorld(netConfig(seed, profile))
					o := observeWorld(w)
					checkAll(t, profile, o)
					issued, _, _ := w.Net.LinkStats()
					if issued == 0 {
						t.Errorf("%s: campaign issued no impaired RPCs — the model is not wired", profile)
					}
					if w.Timing.Sketch(0).Count() == 0 {
						t.Errorf("%s: no gateway timings folded", profile)
					}
				})
			}
		})
	}
}

// TestVirtualClockMonotonicity pins the per-tick law: the merged
// virtual link clock and the issue counter never run backwards, on the
// serial driver and on a pooled one alike.
func TestVirtualClockMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("steps a small world")
	}
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			cfg := campaign.SmallConfig(2)
			cfg.NetProfile = "net.measured"
			w := scenario.NewWorld(cfg)
			w.Workers = workers
			lastElapsed, lastIssued := w.Net.LinkElapsedUS(), int64(0)
			lastIssued, _, _ = w.Net.LinkStats()
			for tick := 0; tick < 48; tick++ {
				w.StepTick()
				elapsed := w.Net.LinkElapsedUS()
				issued, dropped, delivered := w.Net.LinkStats()
				if elapsed < lastElapsed {
					t.Fatalf("tick %d: virtual clock ran backwards (%d < %d)", tick, elapsed, lastElapsed)
				}
				if issued < lastIssued {
					t.Fatalf("tick %d: issue counter ran backwards (%d < %d)", tick, issued, lastIssued)
				}
				if issued != dropped+delivered {
					t.Fatalf("tick %d: loss conservation broken: %d != %d + %d",
						tick, issued, dropped, delivered)
				}
				lastElapsed, lastIssued = elapsed, issued
			}
			if lastIssued == 0 {
				t.Fatal("48 ticks under net.measured issued no impaired RPCs")
			}
		})
	}
}
