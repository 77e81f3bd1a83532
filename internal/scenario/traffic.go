package scenario

import (
	"math/rand"
	"slices"

	"tcsb/internal/crawler"
	"tcsb/internal/dht"
	"tcsb/internal/ids"
	"tcsb/internal/netsim"
	"tcsb/internal/trace"
)

// TickSeconds is the virtual duration of one tick (an hour).
const TickSeconds = 3600

// TicksPerDay is the number of ticks per virtual day.
const TicksPerDay = 24

// Tick returns the current tick index.
func (w *World) Tick() int { return w.tick }

// StepTick advances the world by one hour: churn, content lifecycle,
// request traffic, platform advertisement, and Hydra cache filling.
//
// The tick is executed in sharded phases (see shards.go): the actor
// population is partitioned into Shards fixed shards, each phase is
// planned per shard on its own splitmix-derived RNG stream (in parallel
// when w.Workers > 1), and results are applied — or, for the expensive
// request execution and Hydra drains, run on netsim Effects lanes and
// merged — in fixed shard order. The world's evolution is therefore a
// pure function of (Config, tick), identical for every Workers value.
func (w *World) StepTick() {
	rngs := make([]*rand.Rand, Shards)
	for s := range rngs {
		rngs[s] = w.shardRNG(s)
	}

	// Phase 1: churn — planned per shard, applied in shard order.
	views := w.shardViews()
	churn := make([][]churnDecision, Shards)
	w.eachShard(func(s int) { churn[s] = w.planChurn(rngs[s], &views[s]) })
	w.applyChurn(churn)

	// Phase 2: content lifecycle. Expiry is deterministic bookkeeping;
	// births are planned per shard against the post-churn population.
	w.expireContent()
	views = w.shardViews()
	births := make([][]birthPlan, Shards)
	w.eachShard(func(s int) { births[s] = w.planBirths(s, rngs[s], &views[s]) })
	w.applyBirths(births)

	// Phase 3: request traffic — planned per shard, executed on the
	// worker pool with per-shard effect lanes.
	reqs := make([][]requestPlan, Shards)
	w.eachShard(func(s int) { reqs[s] = w.planRequests(s, rngs[s], &views[s]) })
	w.runRequests(reqs)

	// Phase 4: advertisement and Hydra cache filling.
	w.stepPlatformAdvertise()
	w.drainHydras()

	// Phase 5: sustained adversarial traffic (attack.go) — serial and
	// RNG-free, a pure function of the tick.
	w.stepAttackTraffic()

	if w.tick%TicksPerDay == TicksPerDay-1 {
		w.refreshTopology()
		w.rebuildSamplers()
	}
	w.tick++
	w.Net.Clock.Advance(TickSeconds)
}

// rotateIP gives a residential actor a fresh address (DHCP re-lease).
func (w *World) rotateIP(a *Actor) {
	a.IP = w.Alloc.ResidentialIP(a.Country)
	if a.NAT {
		w.attach(a)
		return
	}
	w.Net.SetAddrs(a.ID, addrList(a.IP))
}

// regenerateActor replaces a residential actor with a fresh identity (and
// usually a fresh IP), modelling users whose nodes come back as brand-new
// peers.
func (w *World) regenerateActor(old *Actor) {
	w.Net.Detach(old.ID)
	delete(w.Actors, old.ID)

	// Regenerated actors are residential: churn regenerates no cloud actor.
	a := &Actor{
		ID: w.nextPeerID(), NAT: old.NAT,
		Provider: old.Provider, Country: old.Country,
		Online: true, activity: old.activity,
	}
	a.IP = w.Alloc.ResidentialIP(a.Country)
	if a.NAT {
		a.Relay = w.randomServer()
	}
	w.join(a)
	replaceID(w.order, old.ID, a.ID)
	if a.NAT {
		replaceID(w.clients, old.ID, a.ID)
	} else {
		replaceID(w.servers, old.ID, a.ID)
		w.rebuildRing()
	}
	w.fillTableOf(a)
	a.Node.ConnectBitswap(w.Monitor.ID())
	for j := 0; j < w.Cfg.BitswapDegree; j++ {
		other := w.order[w.Rng.Intn(len(w.order))]
		if other != a.ID {
			a.Node.ConnectBitswap(other)
		}
	}
}

// replaceID puts id in old's place in s, keeping positions stable for
// determinism (the position also fixes the actor's shard).
func replaceID(s []ids.PeerID, old, id ids.PeerID) {
	if i := slices.Index(s, old); i >= 0 {
		s[i] = id
	}
}

// expireContent ages the catalogue: expired user content is dropped by
// its owner.
func (w *World) expireContent() {
	liveOut := w.live[:0]
	for _, idx := range w.live {
		e := &w.catalog[idx]
		if !e.persistent && w.tick >= e.dieTick {
			if owner := w.Actors[e.owner]; owner != nil {
				owner.Node.RemoveBlock(e.cid)
			}
			continue
		}
		liveOut = append(liveOut, idx)
	}
	w.live = liveOut
}

// resolversFor returns the online resolver set for a CID (the K closest
// online servers, hydra heads included). Read-only: safe to call from
// concurrent request lanes.
func (w *World) resolversFor(c ids.CID) []ids.PeerID {
	var out []ids.PeerID
	for _, p := range w.nearestServers(c.Key(), 2*dht.K) {
		if w.Net.Online(p) {
			out = append(out, p)
			if len(out) == dht.K {
				break
			}
		}
	}
	return out
}

// stepPlatformAdvertise is the daily reprovide pass (kubo re-advertises
// all stored content every 12-22h; provider records expire after 24h).
// Platform content is co-advertised by several cluster nodes via the
// accelerated DHT client (ADD_PROVIDER straight to the resolvers, no
// per-CID walk) — which is what makes a handful of platform peers appear
// in most provider records (Fig. 15) and what dominates advertise-related
// DHT traffic (Fig. 13). Ordinary owners re-advertise their own live
// content, keeping NAT-ed and non-cloud provider records alive
// (Figs. 14/16).
func (w *World) stepPlatformAdvertise() {
	every := w.Cfg.PlatformAdvertiseEvery
	if every <= 0 || w.tick%every != every-1 {
		return
	}
	for _, idx := range w.live {
		e := &w.catalog[idx]
		owner := w.Actors[e.owner]
		if owner == nil || !owner.Online {
			continue
		}
		resolvers := w.resolversFor(e.cid)
		cluster := w.platformNodes[owner.Platform]
		if e.persistent && len(cluster) > 0 {
			// Persistent platform content: two cluster nodes co-provide,
			// rotating with the CID index.
			for j := 0; j < 2 && j < len(cluster); j++ {
				nd := cluster[(idx+j)%len(cluster)]
				nd.AddBlock(e.cid)
				nd.ProvideDirect(nil, e.cid, resolvers)
			}
			continue
		}
		owner.Node.ProvideDirect(nil, e.cid, resolvers)
	}
}

// refreshTopology re-fills neighbourhood buckets daily, modelling bucket
// refreshes; churn ghosts remain in the far buckets of peers that have
// not refreshed them, which is what crawls observe as uncrawlable leaves.
// It also runs the daily provider-record GC on every node and Hydra
// deployment (the stores filter expired records on read; pruning is
// batched here so reads stay pure).
func (w *World) refreshTopology() {
	w.rebuildRing()
	w.Hydra.ExpireProviders()
	for _, h := range w.PLHydras {
		h.ExpireProviders()
	}
	for _, id := range w.order {
		a := w.Actors[id]
		if a == nil {
			continue
		}
		a.Node.ExpireProviders()
		if !a.Online {
			continue
		}
		now := w.Net.Clock.Now()
		for _, p := range w.nearestServers(a.ID.Key(), 24) {
			if p != a.ID && w.Net.Online(p) {
				a.Node.LearnPeer(p, now)
			}
		}
	}
}

// CrawlerID is the overlay identity the world's crawler dials with.
// Analyses exclude its traffic, as the authors exclude their own
// measurement tools from the logs.
func (w *World) CrawlerID() ids.PeerID {
	return ids.PeerIDFromSeed(uint64(w.Cfg.Seed)<<48 + 0xc4a71)
}

// CollectorID is the provider-record collector's overlay identity.
func (w *World) CollectorID() ids.PeerID {
	return ids.PeerIDFromSeed(uint64(w.Cfg.Seed)<<48 + 0xc0113)
}

// Crawl performs one crawl of the world with a dedicated crawler
// identity, seeded from stable gateway nodes. The crawl's dial fan-out
// runs on w.Workers goroutines; its snapshot is Workers-independent.
func (w *World) Crawl(id int) *crawler.Snapshot {
	seeds := make([]netsim.PeerInfo, 0, 4)
	for _, nd := range w.Gateways[0].Nodes() {
		seeds = append(seeds, w.Net.Info(nd.ID()))
		if len(seeds) == 3 {
			break
		}
	}
	snap := crawler.Crawl(w.Net, crawler.Config{
		ID:        id,
		CrawlerID: w.CrawlerID(),
		Parallel:  w.Workers,
	}, seeds)
	w.Timing.Record(nil, trace.PhaseCrawl, snap.LinkLatencyUS)
	return snap
}
