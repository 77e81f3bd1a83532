package tcsb_test

// Registry-driven benchmarks: every experiment registered in
// internal/experiments gets a sub-benchmark deriving it from a shared
// observation campaign (built once), so a newly registered experiment is
// benchmarked with no wiring here. Ablation benches for the design
// choices called out in DESIGN.md, plus the heavy pipeline benches
// (world construction, crawling, collection), build their own fixtures.
//
// Run everything:      go test -bench=. -benchmem .
// All experiments:     go test -bench=BenchmarkExperiments .
// One experiment:      go test -bench=BenchmarkExperiments/fig8 .
// Parallel engine:     go test -bench=BenchmarkExperimentEngine .

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"testing"

	"tcsb/internal/core"
	"tcsb/internal/counting"
	"tcsb/internal/crawler"
	"tcsb/internal/dht"
	"tcsb/internal/experiments"
	"tcsb/internal/graph"
	"tcsb/internal/hydra"
	"tcsb/internal/ids"
	"tcsb/internal/netsim"
	"tcsb/internal/provrecords"
	"tcsb/internal/report"
	"tcsb/internal/scenario"
	"tcsb/internal/simtest"
	"tcsb/internal/simtest/campaign"
	"tcsb/internal/trace"
)

// benchObservatory returns the shared campaign fixture (built once per
// process by simtest, shared with the core shape tests).
func benchObservatory(b *testing.B) *core.Observatory {
	b.Helper()
	return campaign.MediumObservatory(21, 2)
}

// BenchmarkCampaign measures the full observation campaign — world
// construction, sharded tick stepping, crawls, provider-record
// collection and the analysis stages — at increasing campaign worker
// counts. This is the headline number BENCH_campaign.json records; the
// output is byte-identical across worker counts, so the sub-benchmarks
// differ only in wall-clock. Skipped under -short (CI runs benches with
// -benchtime=1x -short; the campaign fixture there would dominate).
func BenchmarkCampaign(b *testing.B) {
	if testing.Short() {
		b.Skip("full campaign benchmark")
	}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := scenario.DefaultConfig()
				cfg.Seed = 1
				rc := core.DefaultRunConfig()
				rc.Workers = workers
				o := core.Observe(scenario.NewWorld(cfg), rc)
				if o.HydraStats().Len() == 0 {
					b.Fatal("empty campaign")
				}
			}
		})
	}
	// The network-realism row: the same campaign under the net.measured
	// link profile. Impairment draws and timing-sink folds happen on
	// every RPC, so the delta against workers-8 is the whole cost of the
	// latency layer; memory must stay flat — the latency.* figures come
	// out of fixed-size sketches, never a retained timing trace.
	b.Run("net-measured-workers-8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := scenario.DefaultConfig()
			cfg.Seed = 1
			cfg.NetProfile = "net.measured"
			rc := core.DefaultRunConfig()
			rc.Workers = 8
			o := core.Observe(scenario.NewWorld(cfg), rc)
			if o.World.Timing.Sketch(trace.PhaseGateway).Count() == 0 {
				b.Fatal("no gateway latency samples folded")
			}
		}
	})
}

// benchTimelineResult builds (once per process) the small longitudinal
// fixture the timeline.* experiment benchmarks derive from: two epochs
// with a churn drift at epoch 1, on the small campaign shape.
var benchTimelineOnce struct {
	sync.Once
	tr *core.TimelineResult
}

func benchTimelineResult(b *testing.B) *core.TimelineResult {
	b.Helper()
	benchTimelineOnce.Do(func() {
		sch, err := campaign.CompileSchedule("epochs=2;@1:churn:2")
		if err != nil {
			panic(err)
		}
		rc := campaign.SmallRunConfig()
		rc.Workers = 2
		benchTimelineOnce.tr = core.RunTimeline(campaign.SmallConfig(21), rc, sch, core.TimelineOptions{})
	})
	return benchTimelineOnce.tr
}

// BenchmarkTimeline measures the acceptance-scenario longitudinal
// campaign — 14 epochs over one evolving default-scale world with the
// Hydra fleet dissolving at epoch 5 — end to end: world construction,
// per-epoch ticking/crawling/collection, epoch snapshots and the
// timeline.* derivations. The per-epoch cost is flat (activity is read
// as deltas of the bounded streaming accumulators); BENCH_campaign.json
// records the measured wall clock next to the plain campaign's.
func BenchmarkTimeline(b *testing.B) {
	if testing.Short() {
		b.Skip("full longitudinal campaign benchmark")
	}
	sch, err := campaign.CompileSchedule("epochs=14;days=1;@5:hydra-dissolution")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := scenario.DefaultConfig()
		cfg.Seed = 1
		rc := core.DefaultRunConfig()
		rc.Workers = 1
		tr := core.RunTimeline(cfg, rc, sch, core.TimelineOptions{})
		if len(tr.Epochs) != 14 {
			b.Fatal("short timeline")
		}
		results, err := experiments.RunTimeline(tr, nil, 2)
		if err != nil || len(results) == 0 {
			b.Fatalf("timeline derivations failed: %v", err)
		}
	}
}

// --- Tables and figures (registry-driven) ---

// BenchmarkExperiments runs every registered experiment as a
// sub-benchmark: one Register() call in internal/experiments is all it
// takes for a new experiment to appear here. Shared derived data is
// memoized on the fixture, so these measure the warm (steady-state)
// path; BenchmarkDerivations covers the cold path of the memoized
// derivations themselves.
func BenchmarkExperiments(b *testing.B) {
	o := benchObservatory(b)
	tl := benchTimelineResult(b)
	for _, e := range experiments.All() {
		e := e
		// Delta (whatif.*) experiments derive from a campaign pair; the
		// self-pair measures the derivation cost without a second
		// campaign build (every delta renders as zero). Timeline
		// (timeline.*) experiments derive from the shared longitudinal
		// fixture.
		derive := func() []*report.Table { return e.Run(o) }
		switch e.Kind() {
		case experiments.ModeDelta:
			derive = func() []*report.Table { return e.Delta(o, o) }
		case experiments.ModeTimeline:
			derive = func() []*report.Table { return e.Timeline(tl) }
		}
		b.Run(e.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if tables := derive(); len(tables) == 0 {
					b.Fatalf("%s produced no tables", e.Name)
				}
			}
		})
	}
}

// BenchmarkExperimentEngine measures the full catalog end-to-end at
// increasing worker counts — the speedup the parallel runner buys over
// the old serial print chain.
func BenchmarkExperimentEngine(b *testing.B) {
	o := benchObservatory(b)
	for _, parallel := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel-%d", parallel), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Run(o, nil, parallel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDerivations measures the shared derivations that
// internal/core memoizes behind sync.Once, calling the underlying
// builders directly so every iteration pays the full (cold) cost — the
// warm-path experiment benches above would otherwise hide a regression
// here after the first iteration.
func BenchmarkDerivations(b *testing.B) {
	o := benchObservatory(b)
	lastSnap := o.Crawls.Snapshots[len(o.Crawls.Snapshots)-1]
	b.Run("counting-dataset", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = counting.FromSeries(&o.Crawls)
		}
	})
	b.Run("crawl-graph", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = graph.FromSnapshot(lastSnap)
		}
	})
	b.Run("undirected-adjacency", func(b *testing.B) {
		g := graph.FromSnapshot(lastSnap)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = g.Undirected()
		}
	})
	b.Run("provider-profiles", func(b *testing.B) {
		isCloud := func(ip netip.Addr) bool { return o.World.DB.Lookup(ip).Cloud() }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = provrecords.Profiles(&o.Records, isCloud)
		}
	})
	// The iterator accessors the render path (peerPareto/ipPareto,
	// Figs. 10–11) reads activity through: they walk the accumulator's
	// dense columnar storage and allocate nothing.
	b.Run("hydra-activity-iter", func(b *testing.B) {
		b.ReportAllocs()
		var n int64
		for i := 0; i < b.N; i++ {
			o.HydraStats().EachPeerActivity(func(_ ids.PeerID, c int64) { n += c })
			o.HydraStats().EachIPActivity(func(_ netip.Addr, c int64) { n += c })
		}
		_ = n
	})
}

// --- Heavy pipeline benches ---

func BenchmarkCrawlDataset(b *testing.B) {
	net := simtest.BuildServers(1000)
	seeds := net.Seeds(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := crawler.Crawl(net.Network, crawler.Config{
			ID: i, CrawlerID: ids.PeerIDFromSeed(1 << 60),
		}, seeds)
		if snap.Discovered() == 0 {
			b.Fatal("empty crawl")
		}
	}
}

func BenchmarkWorldDay(b *testing.B) {
	cfg := scenario.DefaultConfig().Scaled(0.1)
	cfg.Seed = 31
	w := scenario.NewWorld(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.StepTick()
	}
}

// --- Ablations (DESIGN.md: design choices worth measuring) ---

// BenchmarkAblationCounting compares the two counting methodologies on an
// identical crawl dataset: A-N does strictly more grouping work, which is
// the price of churn-corrected estimates.
func BenchmarkAblationCounting(b *testing.B) {
	o := benchObservatory(b)
	d := counting.FromSeries(&o.Crawls)
	attr := o.World.CloudAttr()
	b.Run("G-IP", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = d.GIP(attr)
		}
	})
	b.Run("A-N", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = d.AN(attr, counting.MajorityVote)
		}
	})
}

// BenchmarkAblationFindProviders compares the standard (stop at 20) and
// exhaustive (query all resolvers) FindProviders for a popular CID — the
// overhead the paper's ethics appendix quantifies.
func BenchmarkAblationFindProviders(b *testing.B) {
	net := simtest.BuildServers(500)
	c := ids.CIDFromSeed(77)
	for i := 0; i < 40; i++ {
		net.Nodes[i].AddBlock(c)
		net.Nodes[i].Provide(nil, c)
	}
	requester := net.Nodes[450]
	b.Run("standard", func(b *testing.B) {
		b.ReportAllocs()
		var queried int
		for i := 0; i < b.N; i++ {
			_, st := requester.FindProviders(nil, c, dht.FindProvidersOpts{})
			queried += st.Queried
		}
		b.ReportMetric(float64(queried)/float64(b.N), "peers-queried")
	})
	b.Run("exhaustive", func(b *testing.B) {
		b.ReportAllocs()
		var queried int
		for i := 0; i < b.N; i++ {
			_, st := requester.FindProviders(nil, c, dht.FindProvidersOpts{Exhaustive: true})
			queried += st.Queried
		}
		b.ReportMetric(float64(queried)/float64(b.N), "peers-queried")
	})
}

// BenchmarkAblationHydraCache measures the proactive-lookup amplification
// (the paper's DoS observation): RPCs generated per unresolvable
// GetProviders request, with and without proactive lookups.
func BenchmarkAblationHydraCache(b *testing.B) {
	for _, proactive := range []bool{false, true} {
		name := "proactive-off"
		if proactive {
			name = "proactive-on"
		}
		b.Run(name, func(b *testing.B) {
			net := simtest.BuildServers(400)
			h := hydra.New(net.Network, 1<<50, hydra.Config{Heads: 5, ProactiveLookups: proactive})
			for _, head := range h.Heads() {
				net.Network.Attach(head, h, netsim.HostConfig{Reachable: true})
			}
			var seeds []netsim.PeerInfo
			for _, nd := range net.Nodes {
				seeds = append(seeds, net.Network.Info(nd.ID()))
			}
			h.Bootstrap(seeds)
			head := h.Heads()[0]
			caller := net.Nodes[0].ID()
			b.ReportAllocs()
			b.ResetTimer()
			before := net.Network.TotalMessages()
			for i := 0; i < b.N; i++ {
				bogus := ids.CIDFromSeed(uint64(1<<40 + i))
				_, _, _ = net.Network.GetProviders(nil, nil, nil, caller, head, bogus)
				h.ProcessPending(nil)
			}
			amplification := float64(net.Network.TotalMessages()-before) / float64(b.N)
			b.ReportMetric(amplification, "rpcs-per-request")
		})
	}
}

// BenchmarkAblationResolution compares Bitswap-first resolution (the IPFS
// default) against DHT-only resolution for popular content: the 1-hop
// broadcast short-circuits the walk when a neighbour has the block.
func BenchmarkAblationResolution(b *testing.B) {
	net := simtest.BuildServers(500)
	c := ids.CIDFromSeed(5)
	holder := net.Nodes[3]
	holder.AddBlock(c)
	holder.Provide(nil, c)
	requester := net.Nodes[400]
	requester.ConnectBitswap(holder.ID())
	b.Run("bitswap-first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			requester.RemoveBlock(c)
			res := requester.Retrieve(nil, c)
			if !res.Found {
				b.Fatal("retrieval failed")
			}
		}
	})
	b.Run("dht-only", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			recs, _ := requester.FindProviders(nil, c, dht.FindProvidersOpts{})
			if len(recs) == 0 {
				b.Fatal("resolution failed")
			}
		}
	})
}

// BenchmarkRemovalOrders compares random and targeted removal-order
// computation on a crawled topology (the Fig. 8 inner loops).
func BenchmarkRemovalOrders(b *testing.B) {
	net := simtest.BuildServers(600)
	snap := crawler.Crawl(net.Network, crawler.Config{ID: 1, CrawlerID: ids.PeerIDFromSeed(1 << 60)}, net.Seeds(2))
	g := graph.FromSnapshot(snap)
	adj := g.Undirected()
	rng := rand.New(rand.NewSource(1))
	b.Run("random", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			order := graph.RandomOrder(g.N(), rng)
			_ = graph.RemovalCurve(adj, order)
		}
	})
	b.Run("targeted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			order := graph.TargetedOrder(adj)
			_ = graph.RemovalCurve(adj, order)
		}
	})
}

// BenchmarkSectionChurn derives the §4 liveness evidence from the crawl
// series.
func BenchmarkSectionChurn(b *testing.B) {
	o := benchObservatory(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.SectionChurn()
	}
}
