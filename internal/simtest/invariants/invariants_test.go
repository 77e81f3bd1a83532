// Package invariants is the property-test suite for world and dataset
// conservation laws: facts that must hold for every seed, every worker
// count, and — critically — every counterfactual intervention. The
// checks encode what cannot change when an intervention rewrites a
// world: traffic shares still partition the log, provider-record
// ledgers still balance, crawls still discover at least what they can
// crawl, and the network's liveness view still agrees with the
// scenario's.
//
// The package is test files only, so no binary can link it. Its suites
// run every registered intervention's world through the same checks as
// the baseline, over several seeds, so a new intervention gets coverage
// without new test code.
package invariants

import (
	"fmt"
	"math"
	"testing"

	"tcsb/internal/core"
	"tcsb/internal/counterfactual"
	"tcsb/internal/ids"
	"tcsb/internal/node"
	"tcsb/internal/scenario"
	"tcsb/internal/simtest/campaign"
	"tcsb/internal/trace"
)

// Violation is one broken invariant with enough detail to debug it.
type Violation struct {
	// Invariant names the conservation law, e.g. "traffic-mix-partition".
	Invariant string
	// Detail says where and by how much it broke.
	Detail string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// violations collects breakages with printf-style details.
type violations []Violation

func (vs *violations) addf(invariant, format string, args ...any) {
	*vs = append(*vs, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// CheckWorld verifies the world-state conservation laws on a built (and
// possibly evolved, possibly intervention-rewritten) world.
func CheckWorld(w *scenario.World) []Violation {
	var vs violations

	// liveness-agreement: the scenario's view of who is online and the
	// network's must coincide — churn and interventions mutate both.
	for id, a := range w.Actors {
		if a.Online != w.Net.Online(id) {
			vs.addf("liveness-agreement", "actor %s: scenario online=%v, network online=%v",
				id.String(), a.Online, w.Net.Online(id))
		}
		if a.PinnedOffline && a.Online {
			vs.addf("pinned-stays-down", "actor %s is pinned offline but online", id.String())
		}
		if !a.IP.IsValid() {
			vs.addf("actor-has-ip", "actor %s has no IP", id.String())
		}
	}

	// role-partition: every actor is exactly one of server or NAT client.
	servers, clients := w.ServerIDs(), w.ClientIDs()
	if got, want := len(servers)+len(clients), len(w.Actors); got != want {
		vs.addf("role-partition", "%d servers + %d clients != %d actors",
			len(servers), len(clients), want)
	}
	for _, id := range servers {
		if w.Actors[id] == nil {
			vs.addf("role-partition", "server %s not in the actor table", id.String())
		}
	}
	for _, id := range clients {
		if a := w.Actors[id]; a == nil || !a.NAT {
			vs.addf("role-partition", "client %s missing or not NAT-ed", id.String())
		}
	}

	// provider-record-conservation: on every node and every Hydra
	// deployment, the stored record population equals records created
	// minus records expired.
	conserved := func(label string, st node.ProviderStats) {
		if st.Stored != st.Created-st.Pruned {
			vs.addf("provider-record-conservation", "%s: stored %d != created %d - pruned %d",
				label, st.Stored, st.Created, st.Pruned)
		}
	}
	for id, a := range w.Actors {
		conserved("node "+id.String(), a.Node.ProviderStats())
	}
	conserved("vantage hydra", w.Hydra.ProviderStats())
	for i, h := range w.PLHydras {
		conserved(fmt.Sprintf("PL hydra %d", i), h.ProviderStats())
	}

	// live-catalog-containment: every live CID is a catalogued, currently
	// provided entry.
	for _, c := range w.LiveCIDs() {
		if _, _, live, ok := w.ContentInfo(c); !ok || !live {
			vs.addf("live-catalog-containment", "live CID %s: catalogued=%v live=%v",
				c, ok, live)
		}
	}

	return vs
}

// CheckObservatory verifies the dataset conservation laws on a finished
// observation campaign (and, via CheckWorld, the world it observed).
func CheckObservatory(o *core.Observatory) []Violation {
	vs := violations(CheckWorld(o.World))

	// traffic-mix-partition: the class shares of a non-empty stream sum
	// to 1 and each lies in [0, 1] — the categories partition the
	// traffic. Checked on the streaming statistics, which exist in both
	// retained and streaming-only campaigns.
	checkMix := func(label string, st *trace.Accum) {
		if st == nil || st.Len() == 0 {
			return
		}
		mix := st.Mix()
		sum := 0.0
		for cl, share := range mix {
			sum += share
			if share < 0 || share > 1 {
				vs.addf("traffic-mix-partition", "%s: class %s share %v outside [0,1]",
					label, cl, share)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			vs.addf("traffic-mix-partition", "%s: shares sum to %v, want 1", label, sum)
		}
	}
	checkMix("hydra vantage stats", o.HydraStats())
	checkMix("bitswap monitor stats", o.MonitorStats())

	// crawl-containment: a crawl can never crawl more peers than it
	// discovered, no peer is observed twice in one crawl, and every
	// crawlable peer answered from >= 1 address.
	for _, snap := range o.Crawls.Snapshots {
		if snap.Crawlable() > snap.Discovered() {
			vs.addf("crawl-containment", "crawl %d: crawlable %d > discovered %d",
				snap.ID, snap.Crawlable(), snap.Discovered())
		}
		seen := make(map[ids.PeerID]bool, len(snap.Peers))
		for i := range snap.Peers {
			obs := &snap.Peers[i]
			p := obs.Peer
			if seen[p] {
				vs.addf("crawl-containment", "crawl %d: peer %s observed twice",
					snap.ID, p.String())
			}
			seen[p] = true
			// per-peer-ips: a peer that answered the sweep was dialled,
			// so it must resolve to at least one IP. (Uncrawlable bucket
			// ghosts may legitimately have none.)
			if obs.Crawlable && len(obs.IPs()) < 1 {
				vs.addf("per-peer-ips", "crawl %d: crawlable peer %s has no IPs",
					snap.ID, p.String())
			}
		}
	}

	// vantage-purity: the analysis view must exclude the observatory's
	// own measurement identities, as the authors exclude their tools.
	if st := o.HydraStats(); st != nil {
		own := map[ids.PeerID]string{o.World.CrawlerID(): "crawler", o.World.CollectorID(): "collector"}
		st.EachPeerActivity(func(p ids.PeerID, _ int64) {
			if label, ok := own[p]; ok {
				vs.addf("vantage-purity", "hydra analysis stats contain %s traffic from %s",
					label, p.String())
			}
		})
	}

	return vs
}

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
