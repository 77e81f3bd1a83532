// Package hydra reimplements the modified Hydra booster of the paper
// (Section 3, "Hydra-booster logs"): a DHT server with multiple virtual
// peer IDs co-located on one machine, logging every incoming DHT request
// (timestamp, sender peer ID and IP, request type, target) while serving
// the DHT like a regular node.
//
// It also reproduces the behaviour the paper analyses in Section 5: a
// shared provider-record cache across heads, and *proactive lookups* —
// when a GetProviders request misses the cache, the Hydra later performs
// its own FindProviders walk for that CID to pre-fill the cache. This
// amplification is why Hydra/AWS dominates download-related DHT traffic
// in Fig. 13, and it is the Denial-of-Service vector the paper points
// out. Proactive lookups are queued and drained by the simulation driver
// (ProcessPending), keeping the single-threaded simulation deterministic.
package hydra

import (
	"tcsb/internal/dht"
	"tcsb/internal/ids"
	"tcsb/internal/kademlia"
	"tcsb/internal/netsim"
	"tcsb/internal/node"
	"tcsb/internal/trace"
)

// DefaultHeads is the number of virtual peer IDs the paper's deployment
// used.
const DefaultHeads = 20

// The booster's fixed cache policy.
const (
	// maxPendingLookups bounds the proactive-lookup queue.
	maxPendingLookups = 4096
	// drainPerCall is how many queued lookups one ProcessPending call
	// performs.
	drainPerCall = 128
	// cacheTTL is how long proactive-lookup results (including negative
	// ones) stay fresh before a new miss re-triggers a lookup. The
	// expiry is what keeps production Hydras re-amplifying popular
	// misses: the paper's DoS observation.
	cacheTTL netsim.Time = 3600
	// providerTTL is how long a regular provider record lives: kubo's
	// historical 24h.
	providerTTL netsim.Time = 24 * 3600
)

// Config controls the Hydra booster.
type Config struct {
	// Heads is the number of virtual peer IDs (default 20).
	Heads int
	// ProactiveLookups enables the cache-filling FindProviders walks.
	ProactiveLookups bool
	// Pipe is the observation pipeline incoming requests are logged to.
	// A nil pipeline records nothing: the Protocol Labs production
	// boosters have one, because nothing reads their logs. The vantage
	// Hydra streams into its pipeline's Accum.
	Pipe *trace.Pipeline
}

// cacheEntry is one proactive-lookup result with its collection time.
// ExpireProviders releases a stale entry's records but keeps the entry:
// CacheSize counts it, and every world snapshot digest hashes CacheSize.
type cacheEntry struct {
	recs []netsim.ProviderRecord
	at   netsim.Time
}

// Hydra is the booster. It implements netsim.Handler; every head is
// attached to the network with this same handler.
type Hydra struct {
	cfg     Config
	net     *netsim.Network
	heads   []ids.PeerID
	headSet map[ids.PeerID]bool
	table   *kademlia.Table
	walker  *dht.Walker
	store   *node.ProviderStore    // regular DHT records
	cache   map[ids.CID]cacheEntry // proactive-lookup results
	pipe    *trace.Pipeline

	pending   []ids.CID
	pendingIn map[ids.CID]bool
}

// New creates a Hydra whose heads are derived deterministically from
// seed. Call Attach to register the heads on a network.
func New(net *netsim.Network, seed uint64, cfg Config) *Hydra {
	if cfg.Heads <= 0 {
		cfg.Heads = DefaultHeads
	}
	h := &Hydra{
		cfg:       cfg,
		net:       net,
		pipe:      cfg.Pipe,
		headSet:   make(map[ids.PeerID]bool),
		store:     node.NewProviderStore(providerTTL, net.Intern),
		cache:     make(map[ids.CID]cacheEntry),
		pendingIn: make(map[ids.CID]bool),
	}
	for i := 0; i < cfg.Heads; i++ {
		id := ids.PeerIDFromSeed(seed + uint64(i)*0x9e3779b97f4a7c15)
		h.heads = append(h.heads, id)
		h.headSet[id] = true
	}
	// One shared routing table across heads, organized around the first
	// head's key; lookups and FindNode answers use XOR distance to the
	// *requested* target, so the organising key only affects retention.
	h.table = kademlia.New(h.heads[0].Key(), 8*kademlia.K, net.Intern.Peers)
	h.walker = dht.NewWalker(net, h.heads[0])
	return h
}

// Heads returns the virtual peer IDs.
func (h *Hydra) Heads() []ids.PeerID { return append([]ids.PeerID(nil), h.heads...) }

// IsHead reports whether p is one of this Hydra's virtual identities.
func (h *Hydra) IsHead(p ids.PeerID) bool { return h.headSet[p] }

// Log returns the retained raw request log, or nil when the pipeline
// does not retain events (campaign worlds stream into Stats instead) or
// is nil.
func (h *Hydra) Log() *trace.Log { return h.pipe.Log() }

// Stats returns the streaming request statistics (nil for a nil
// pipeline).
func (h *Hydra) Stats() *trace.Accum { return h.pipe.Stats() }

// CacheSize returns the number of CIDs with proactively cached records.
func (h *Hydra) CacheSize() int { return len(h.cache) }

// SetProactiveLookups flips the cache-filling behaviour of a running
// deployment. Timeline schedules use it to apply config rewrites that
// arrive mid-run (Config.ProactiveLookups is otherwise read only at
// construction): a scheduled hydra-dissolution must silence the vantage
// head's active lookups from its epoch onward.
func (h *Hydra) SetProactiveLookups(v bool) { h.cfg.ProactiveLookups = v }

// Bootstrap seeds the shared routing table from known peers.
func (h *Hydra) Bootstrap(peers []netsim.PeerInfo) {
	now := h.net.Clock.Now()
	for _, pi := range peers {
		h.learn(pi.ID, now)
	}
}

func (h *Hydra) learn(p ids.PeerID, now netsim.Time) {
	if p.IsZero() || h.headSet[p] {
		return
	}
	if !h.net.Reachable(p) {
		return
	}
	h.table.Add(kademlia.Contact{Peer: p, LastSeen: now})
}

// record builds the log event immediately (addresses are phase-stable)
// and writes it to the pipeline's lane sink, which the phase merge
// replays in deterministic lane order. A nil pipeline (the Protocol
// Labs production boosters) skips even the address lookup.
func (h *Hydra) record(env *netsim.Effects, from ids.PeerID, t netsim.MsgType, c ids.CID) {
	if !h.pipe.Active() {
		return
	}
	h.pipe.Via(env).Observe(trace.Event{
		Time: h.net.Clock.Now(),
		Peer: from,
		IP:   h.net.ObservedAddr(from),
		Type: t,
		CID:  c,
	})
}

// HandleFindNode serves the DHT like a regular server and logs the
// request.
func (h *Hydra) HandleFindNode(env *netsim.Effects, from ids.PeerID, target ids.Key, closer []ids.PeerID) []ids.PeerID {
	if !h.headSet[from] {
		h.record(env, from, netsim.MsgFindNode, ids.CID{})
		env.DeferLearn(h, from)
	}
	return h.table.AppendNearest(closer, target, kademlia.K)
}

// HandleGetProviders answers from the regular store plus the proactive
// cache; a miss enqueues a proactive lookup when enabled. The response
// is computed from pre-phase state; log, table and queue writes are
// deferred (the enqueue re-checks its dedup conditions at merge time,
// which keeps the queue contents independent of lane scheduling).
func (h *Hydra) HandleGetProviders(env *netsim.Effects, from ids.PeerID, c ids.CID, recs []netsim.ProviderRecord, closer []ids.PeerID) ([]netsim.ProviderRecord, []ids.PeerID) {
	fromSelf := h.headSet[from]
	if !fromSelf {
		h.record(env, from, netsim.MsgGetProviders, c)
		env.DeferLearn(h, from)
	}
	start := len(recs)
	now := h.net.Clock.Now()
	recs = h.store.AppendGet(recs, c, now)
	if ce, ok := h.cache[c]; ok && now-ce.at < cacheTTL {
		recs = append(recs, ce.recs...)
	}
	if len(recs) == start && h.cfg.ProactiveLookups && !fromSelf {
		env.DeferLookup(h, c)
	}
	return recs, h.table.AppendNearest(closer, c.Key(), kademlia.K)
}

// HandleAddProvider stores the record like any DHT server.
func (h *Hydra) HandleAddProvider(env *netsim.Effects, from ids.PeerID, c ids.CID, rec netsim.ProviderRecord) {
	if !h.headSet[from] {
		h.record(env, from, netsim.MsgAddProvider, c)
		env.DeferLearn(h, from)
	}
	env.DeferProviderPut(h, c, rec)
}

// PutProvider applies a deferred record store at lane merge
// (netsim.ProviderSink), or on the spot in serial mode; either way no
// phase is running, so the store may intern. Received is stamped here.
func (h *Hydra) PutProvider(c ids.CID, rec netsim.ProviderRecord) {
	rec.Received = h.net.Clock.Now()
	h.store.Put(c, rec)
}

// ExpireProviders prunes the expired regular records and releases the
// records of stale proactive-cache entries, keeping their keys (see
// cacheEntry). Serial-only; scenarios call it daily, beside the node
// stores' GC.
func (h *Hydra) ExpireProviders() {
	now := h.net.Clock.Now()
	h.store.Expire(now)
	for c, ce := range h.cache {
		if ce.recs != nil && now-ce.at >= cacheTTL {
			h.cache[c] = cacheEntry{at: ce.at}
		}
	}
}

// ProviderStats returns the regular record store's conservation ledger,
// as Node.ProviderStats does for a node.
func (h *Hydra) ProviderStats() node.ProviderStats { return h.store.Stats() }

// LearnContact applies a deferred table learn at lane merge
// (netsim.ContactLearner).
func (h *Hydra) LearnContact(from ids.PeerID) { h.learn(from, h.net.Clock.Now()) }

// EnqueueLookup applies a deferred proactive-lookup enqueue at lane
// merge (netsim.LookupEnqueuer); it re-checks the dedup conditions at
// merge time, which keeps the queue contents independent of lane
// scheduling.
func (h *Hydra) EnqueueLookup(c ids.CID) { h.enqueueLookup(c) }

// HandleBitswapWant: hydras do not serve content.
func (h *Hydra) HandleBitswapWant(env *netsim.Effects, from ids.PeerID, c ids.CID) bool {
	if !h.headSet[from] {
		h.record(env, from, netsim.MsgBitswapWant, c)
	}
	return false
}

func (h *Hydra) enqueueLookup(c ids.CID) {
	if h.pendingIn[c] || len(h.pending) >= maxPendingLookups {
		return
	}
	if ce, ok := h.cache[c]; ok && h.net.Clock.Now()-ce.at < cacheTTL {
		return
	}
	h.pendingIn[c] = true
	h.pending = append(h.pending, c)
}

// PendingLookups returns the queued proactive-lookup count.
func (h *Hydra) PendingLookups() int { return len(h.pending) }

// ProcessPending drains up to drainPerCall queued proactive lookups,
// performing real FindProviders walks on the network. Returns the
// number of lookups performed. Drivers call this between request batches.
//
// All self-mutations (cache fills, queue pop) are deferred through the
// env lane. Several Hydra deployments can therefore drain their queues
// concurrently: each walks a stable snapshot of the network (including
// the other Hydras' handler state) and the merged outcome is independent
// of scheduling. Lookups enqueued by other lanes during the phase are
// appended at merge time and drain on the next call, exactly like
// requests that arrive while a real booster is busy.
func (h *Hydra) ProcessPending(env *netsim.Effects) int {
	n := 0
	for ; n < len(h.pending) && n < drainPerCall; n++ {
		c := h.pending[n]
		seeds := h.seedInfos(c.Key())
		recs, _ := h.walker.FindProviders(env, seeds, c, dht.FindProvidersOpts{})
		// Negative results are cached as an empty (non-nil) entry so the
		// same missing CID does not re-trigger lookups — asking a Hydra
		// for non-existing content still generated the traffic once,
		// which is the paper's DoS observation.
		if recs == nil {
			recs = []netsim.ProviderRecord{}
		}
		entry := cacheEntry{recs: recs, at: h.net.Clock.Now()}
		cid := c
		env.Defer(func() {
			delete(h.pendingIn, cid)
			h.cache[cid] = entry
		})
	}
	drained := n
	env.Defer(func() { h.pending = h.pending[drained:] })
	return n
}

func (h *Hydra) seedInfos(target ids.Key) []netsim.PeerInfo {
	peers := h.table.AppendNearest(nil, target, kademlia.K)
	out := make([]netsim.PeerInfo, 0, len(peers))
	for _, p := range peers {
		out = append(out, h.net.Info(p))
	}
	return out
}
