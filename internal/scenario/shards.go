package scenario

import (
	"math/rand"

	"tcsb/internal/hydra"
	"tcsb/internal/ids"
	"tcsb/internal/netsim"
	"tcsb/internal/trace"
)

// Shards is the fixed number of deterministic actor shards the tick
// engine partitions the population into. It is a structural constant of
// the simulation — NOT the worker count: w.Workers only sizes the
// goroutine pool that executes shard work. Keeping the shard
// decomposition fixed is what makes the world's evolution byte-identical
// across every Workers setting (and across runs).
const Shards = 8

// shardRNG derives the per-(tick, shard) RNG stream. Each shard plans
// its slice of a tick on an independent splitmix-derived sub-seed, so no
// shard ever contends on — or depends on draws consumed by — another.
func (w *World) shardRNG(shard int) *rand.Rand {
	seed := ids.DeriveSeed(uint64(w.Cfg.Seed), uint64(w.tick), uint64(shard))
	return rand.New(rand.NewSource(int64(seed)))
}

// shardView is one shard's slice of the population for a tick phase
// (world construction draws its publishers from a view of the whole
// population). Membership is positional — actor i of w.order (and slot
// i of the clients/servers role lists) belongs to shard i % Shards —
// which is stable across churn because regeneration replaces
// identities in place.
type shardView struct {
	actors  []ids.PeerID
	clients []ids.PeerID
	servers []ids.PeerID
}

// shardViews partitions the current population. Rebuilt per phase group
// (O(population) appends) so planners see post-churn membership. The
// backing arrays live on the world and are reused across rebuilds — a
// rebuild invalidates the previous result, which is fine: each tick
// phase consumes its views before the next rebuild.
func (w *World) shardViews() []shardView {
	if w.viewsBuf == nil {
		w.viewsBuf = make([]shardView, Shards)
	}
	views := w.viewsBuf
	for s := range views {
		views[s].actors = views[s].actors[:0]
		views[s].clients = views[s].clients[:0]
		views[s].servers = views[s].servers[:0]
	}
	for i, id := range w.order {
		s := i % Shards
		views[s].actors = append(views[s].actors, id)
	}
	for i, id := range w.clients {
		s := i % Shards
		views[s].clients = append(views[s].clients, id)
	}
	for i, id := range w.servers {
		s := i % Shards
		views[s].servers = append(views[s].servers, id)
	}
	return views
}

// eachShard runs f(s) for every shard on at most w.Workers goroutines.
// Plan functions only read world state and draw from their own shard
// RNG, so they are safe to fan out; outputs land in per-shard slots and
// are consumed in shard order.
func (w *World) eachShard(f func(s int)) {
	netsim.ParallelFor(w.Workers, Shards, f)
}

// --- Churn ---

type churnAction int

const (
	churnOffline churnAction = iota
	churnRegen
	churnRotate // rejoin with a fresh residential IP
	churnRejoin // rejoin keeping the current IP
)

type churnDecision struct {
	id     ids.PeerID
	action churnAction
}

// planChurn flips the tick's liveness coins for one shard's actors and
// applies the residential behaviours the counting methodologies disagree
// about: IP rotation and peer-ID regeneration on re-join. Pure planning:
// coins come from the shard RNG, state is only read.
func (w *World) planChurn(rng *rand.Rand, view *shardView) []churnDecision {
	var out []churnDecision
	for _, id := range view.actors {
		a := w.Actors[id]
		if a == nil || a.Platform != "" {
			continue // platform and gateway nodes are professionally run
		}
		if a.PinnedOffline {
			continue // intervention casualties never come back
		}
		offP, onP := w.Cfg.CloudOfflineProb, w.Cfg.CloudOnlineProb
		if !a.Cloud {
			offP, onP = w.Cfg.NonCloudOfflineProb, w.Cfg.NonCloudOnlineProb
		}
		if a.Online {
			if rng.Float64() < offP {
				out = append(out, churnDecision{id, churnOffline})
			}
			continue
		}
		if rng.Float64() >= onP {
			continue
		}
		if !a.Cloud && rng.Float64() < w.Cfg.RegenerateIDProb {
			out = append(out, churnDecision{id, churnRegen})
			continue
		}
		rotateP := w.Cfg.RotateIPProb
		if a.NAT {
			rotateP *= 0.35 // home users' NAT leases are longer-lived
		}
		if !a.Cloud && rng.Float64() < rotateP {
			out = append(out, churnDecision{id, churnRotate})
			continue
		}
		out = append(out, churnDecision{id, churnRejoin})
	}
	return out
}

// applyChurn applies every shard's decisions in shard order. Mutations
// (attach/detach, IP allocation, table refills) run single-threaded;
// the world RNG draws they consume (relay picks, bitswap rewiring) are
// deterministic because the application order is.
func (w *World) applyChurn(decisions [][]churnDecision) {
	for s := range decisions {
		for _, d := range decisions[s] {
			a := w.Actors[d.id]
			if a == nil {
				continue
			}
			switch d.action {
			case churnOffline:
				a.Online = false
				w.Net.SetOnline(a.ID, false)
			case churnRegen:
				w.regenerateActor(a)
			case churnRotate:
				w.rotateIP(a)
				a.Online = true
				w.Net.SetOnline(a.ID, true)
				w.fillTableOf(a)
			case churnRejoin:
				a.Online = true
				w.Net.SetOnline(a.ID, true)
				w.fillTableOf(a)
			}
		}
	}
}

// --- Content births ---

// birthPlan is one planned user-content publication: the owner and
// lifetime are drawn at plan time; the CID is assigned at apply time
// from the serial sequence (apply order is fixed, so CID values are
// deterministic too).
type birthPlan struct {
	owner ids.PeerID
	life  int
	walk  bool // standard iterative Provide walk vs accelerated direct
}

// birthsPerTick is the tick's user-content publication volume.
func (w *World) birthsPerTick() int {
	return 1 + w.Cfg.UserCIDs/60
}

// planBirths plans shard s's share of the tick's publications.
// Ownership skews toward the user fringe — NAT-ed clients and non-cloud
// servers — which is what puts NAT-ed and non-cloud providers into the
// provider-record dataset (Figs. 14-16).
func (w *World) planBirths(s int, rng *rand.Rand, view *shardView) []birthPlan {
	total := w.birthsPerTick()
	count := total / Shards
	if s < total%Shards {
		count++
	}
	var out []birthPlan
	for i := 0; i < count; i++ {
		a := w.planPublisher(rng, view)
		if a == nil {
			continue
		}
		out = append(out, birthPlan{
			owner: a.ID,
			// Lifetime 1–3 days, matching Fig. 9's short CID lifetimes.
			life: 24 + rng.Intn(48),
			// A growing share of nodes runs the accelerated DHT client;
			// the rest publish with the standard iterative walk.
			walk: rng.Float64() < 0.4,
		})
	}
	return out
}

// planPublisher draws a content publisher from the view's population:
// NAT clients, non-cloud servers and the general population in
// paper-calibrated proportions (Fig. 14: NAT-ed 35.6%, cloud 45%,
// non-cloud 18% of providers). When 64 tries meet no online actor, it
// falls back to 64 uniform draws over the view.
func (w *World) planPublisher(rng *rand.Rand, view *shardView) *Actor {
	if len(view.actors) == 0 {
		return nil
	}
	r := rng.Float64()
	for tries := 0; tries < 64; tries++ {
		var id ids.PeerID
		switch {
		case r < 0.32 && len(view.clients) > 0:
			id = view.clients[rng.Intn(len(view.clients))]
		case r < 0.58 && len(view.servers) > 0:
			id = view.servers[rng.Intn(len(view.servers))]
			if a := w.Actors[id]; a == nil || a.Cloud {
				continue
			}
		default:
			id = view.actors[rng.Intn(len(view.actors))]
		}
		if a := w.Actors[id]; a != nil && a.Online {
			return a
		}
	}
	for tries := 0; tries < 64; tries++ {
		id := view.actors[rng.Intn(len(view.actors))]
		if a := w.Actors[id]; a != nil && a.Online {
			return a
		}
	}
	return nil
}

// applyBirths publishes the planned content in shard order.
func (w *World) applyBirths(plans [][]birthPlan) {
	for s := range plans {
		for _, b := range plans[s] {
			if a := w.Actors[b.owner]; a != nil {
				w.publish(a, catalogEntry{bornTick: w.tick, dieTick: w.tick + b.life}, b.walk)
			}
		}
	}
}

// --- Request traffic ---

// requestPlan is one planned retrieval. Direct requests carry the
// requesting actor; gateway requests carry the target gateway index.
// The coin pre-draws the post-retrieval reprovide decision so execution
// consumes no randomness at all.
type requestPlan struct {
	gateway   int // -1 for a direct (non-HTTP) request
	requester ids.PeerID
	cid       ids.CID
	bogus     bool // CID assigned serially at regroup time
	coin      float64
}

// planRequests plans shard s's slice of the tick's retrieval traffic.
func (w *World) planRequests(s int, rng *rand.Rand, view *shardView) []requestPlan {
	total := w.Cfg.RequestsPerTick
	count := total / Shards
	if s < total%Shards {
		count++
	}
	out := make([]requestPlan, 0, count)
	for i := 0; i < count; i++ {
		if rng.Float64() < w.Cfg.GatewayTrafficShare {
			// HTTP retrieval via a gateway: the ipfs-bank-style platform
			// takes the lion's share, then the CDN gateway, then the rest.
			var gi int
			switch r := rng.Float64(); {
			case r < 0.55:
				gi = w.bankIdx
			case r < 0.85:
				gi = 0 // cloudflare-style
			default:
				gi = rng.Intn(len(w.Gateways))
			}
			cid, bogus := w.planRequestCID(rng, true)
			out = append(out, requestPlan{gateway: gi, cid: cid, bogus: bogus, coin: rng.Float64()})
			continue
		}
		a := w.planRequester(rng, view)
		cid, bogus := w.planRequestCID(rng, false)
		if a == nil {
			continue
		}
		out = append(out, requestPlan{gateway: -1, requester: a.ID, cid: cid, bogus: bogus, coin: rng.Float64()})
	}
	return out
}

// planRequestCID draws a CID (dead content included — requests for
// vanished CIDs are normal and feed the Hydra amplification), sometimes
// entirely bogus. Direct users request head-of-distribution content
// (resolved mostly via Bitswap broadcasts); gateways front the world's
// HTTP users and therefore sample much deeper into the tail, where DHT
// walks are needed. Bogus CIDs are marked for serial assignment at
// regroup time (the CID sequence is shared state).
func (w *World) planRequestCID(rng *rand.Rand, tail bool) (ids.CID, bool) {
	if rng.Float64() < w.Cfg.BogusCIDFrac {
		return ids.CID{}, true // never provided by anyone
	}
	// Most retrievals target content that is currently being shared
	// (live); the remainder follow the rank distribution over the whole
	// catalogue, dead entries included.
	liveP := 0.20
	if tail {
		liveP = 0.55
	}
	if len(w.live) > 0 && rng.Float64() < liveP {
		return w.catalog[w.live[rng.Intn(len(w.live))]].cid, false
	}
	var idx int
	if tail {
		idx = w.zipfTail.Draw(rng)
	} else {
		idx = w.zipf.Draw(rng)
	}
	if idx >= len(w.catalog) {
		idx = len(w.catalog) - 1
	}
	return w.catalog[idx].cid, false
}

// planRequester picks an online shard actor proportional to its activity
// weight (platforms are much chattier than home users), via rejection
// sampling against the max weight.
func (w *World) planRequester(rng *rand.Rand, view *shardView) *Actor {
	const maxActivity = 2
	if len(view.actors) == 0 {
		return nil
	}
	for tries := 0; tries < 128; tries++ {
		id := view.actors[rng.Intn(len(view.actors))]
		a := w.Actors[id]
		if a == nil || !a.Online {
			continue
		}
		if rng.Float64() < a.activity/maxActivity {
			return a
		}
	}
	return nil
}

// runRequests regroups the planned requests onto execution shards and
// runs them on the worker pool, one netsim Effects lane per shard.
//
// Grouping rule: direct requests execute on their planning shard (the
// requester belongs to it); gateway requests execute on the shard owning
// the target gateway (gateway index mod Shards), so each Gateway's HTTP
// cache and round-robin cursor are touched by exactly one lane. All
// cross-node effects of the retrievals — provider puts, monitor/Hydra
// log appends, block stores — are deferred through the lanes and merged
// in shard order by Fanout.
func (w *World) runRequests(plans [][]requestPlan) {
	exec := make([][]requestPlan, Shards)
	for s := range plans {
		for _, p := range plans[s] {
			if p.bogus {
				p.cid = w.nextCID()
			}
			target := s
			if p.gateway >= 0 {
				target = p.gateway % Shards
			}
			exec[target] = append(exec[target], p)
		}
	}
	w.Net.Fanout(w.Workers, Shards, func(s int, env *netsim.Effects) {
		for _, p := range exec[s] {
			w.execRequest(env, p)
		}
	})
}

// execRequest performs one planned retrieval on a lane. It consumes no
// randomness and mutates nothing directly except the owning gateway.
// Each branch brackets its RPCs with latency marks and folds the drawn
// virtual time into the timing sink's phase sketch through the lane.
func (w *World) execRequest(env *netsim.Effects, p requestPlan) {
	if p.gateway >= 0 {
		gw := w.Gateways[p.gateway]
		mark := w.Net.LatencyMark(env)
		ok, nd := gw.FetchHTTP(env, p.cid, w.Net.Online)
		// The fetch alone is the user-perceived latency; the reprovide
		// below is a background batch and stays outside the bracket.
		w.Timing.Record(env, trace.PhaseGateway, w.Net.LatencyMark(env)-mark)
		if ok && nd != nil && p.coin < 0.7 {
			nd.ProvideDirect(env, p.cid, w.resolversFor(p.cid))
		}
		return
	}
	a := w.Actors[p.requester]
	if a == nil || !a.Online {
		return
	}
	mark := w.Net.LatencyMark(env)
	res := a.Node.Retrieve(env, p.cid)
	w.Timing.Record(env, trace.PhaseLookup, w.Net.LatencyMark(env)-mark)
	// IPFS clients become providers for what they download; the
	// reprovider runs in batches (every 12-22h), modelled as a throttled
	// direct re-advertisement. Home users hold on to content longer than
	// ephemeral cloud workers.
	reprovideP := 0.1
	if !a.Cloud {
		reprovideP = 0.3
	}
	if res.Found && p.coin < reprovideP {
		a.Node.ProvideDirect(env, p.cid, w.resolversFor(p.cid))
	}
}

// --- Hydra cache filling ---

// drainHydras runs every Hydra deployment's proactive-lookup drain
// concurrently, one lane per deployment, merged in fixed order (vantage
// first, then the Protocol Labs boosters).
func (w *World) drainHydras() {
	hydras := make([]*hydra.Hydra, 0, 1+len(w.PLHydras))
	hydras = append(hydras, w.Hydra)
	hydras = append(hydras, w.PLHydras...)
	w.Net.Fanout(w.Workers, len(hydras), func(i int, env *netsim.Effects) {
		hydras[i].ProcessPending(env)
	})
}
