// Package node models an IPFS node as the paper describes it (Section 2):
// a peer that participates in the Kademlia DHT as a server or client,
// stores and serves provider records for CIDs it is a resolver for,
// exchanges blocks via Bitswap with its connected neighbours, advertises
// the content it holds, and — when NAT-ed — publishes circuit-relay addresses so that a
// cloud-or-otherwise relay can reverse-proxy inbound connections.
package node

import (
	"slices"
	"sort"

	"tcsb/internal/dht"
	"tcsb/internal/ids"
	"tcsb/internal/kademlia"
	"tcsb/internal/netsim"
)

// ProviderTTL is how long a node keeps a provider record before
// treating it as expired. Newer kubo releases extended the historical
// 24h TTL; 36h also tolerates a missed daily reprovide by a churny
// owner.
const ProviderTTL netsim.Time = 36 * 3600

// Config controls a node's behaviour.
type Config struct {
	// DHTServer makes the node answer DHT RPCs and store provider
	// records. Only publicly connectable nodes become servers (the
	// software auto-detects this; the simulator's scenario sets it).
	DHTServer bool
}

// Node is a simulated IPFS node. It implements netsim.Handler.
//
// Concurrency: within a netsim.Fanout phase, handler methods are pure
// reads over pre-phase state — every mutation (routing-table learns,
// provider puts, block additions) is deferred through the caller's
// Effects lane and replayed at the deterministic merge.
// Direct mutators (AddBlock, ConnectBitswap, LearnPeer, …) remain
// single-threaded driver calls between phases.
type Node struct {
	id     ids.PeerID
	net    *netsim.Network
	rt     *kademlia.Table
	walker *dht.Walker
	cfg    Config

	providers *ProviderStore
	blocks    map[ids.CID]bool

	// bitswapSorted is the Bitswap neighbour set, key-sorted on
	// connect; membership is a binary search.
	bitswapSorted []ids.PeerID
}

// New creates a node and registers nothing: the caller attaches it to the
// network with the appropriate HostConfig (addresses, reachability,
// relay).
func New(id ids.PeerID, net *netsim.Network, cfg Config) *Node {
	return &Node{
		id:        id,
		net:       net,
		rt:        kademlia.New(id.Key(), kademlia.K, net.Intern.Peers),
		walker:    dht.NewWalker(net, id),
		cfg:       cfg,
		providers: NewProviderStore(ProviderTTL, net.Intern),
		blocks:    make(map[ids.CID]bool),
	}
}

// ID returns the node's peer ID.
func (n *Node) ID() ids.PeerID { return n.id }

// RoutingTable exposes the node's k-buckets (read-mostly; the crawler
// never touches this directly — it enumerates via FindNode like the real
// tool — but scenario setup and tests do).
func (n *Node) RoutingTable() *kademlia.Table { return n.rt }

// --- netsim.Handler ---

// HandleFindNode answers a FindNode RPC, appending the K closest
// contacts onto closer. DHT clients do not serve the DHT and return
// closer unchanged. Servers opportunistically learn the caller if it is
// itself a server (real tables only hold DHT servers).
func (n *Node) HandleFindNode(env *netsim.Effects, from ids.PeerID, target ids.Key, closer []ids.PeerID) []ids.PeerID {
	if !n.cfg.DHTServer {
		return closer
	}
	n.maybeLearn(env, from)
	return n.rt.AppendNearest(closer, target, kademlia.K)
}

// HandleGetProviders answers a GetProviders RPC with any unexpired
// provider records for c plus the closest contacts to c's key, both
// appended onto the caller's buffers.
func (n *Node) HandleGetProviders(env *netsim.Effects, from ids.PeerID, c ids.CID, recs []netsim.ProviderRecord, closer []ids.PeerID) ([]netsim.ProviderRecord, []ids.PeerID) {
	if !n.cfg.DHTServer {
		return recs, closer
	}
	n.maybeLearn(env, from)
	recs = n.providers.AppendGet(recs, c, n.net.Clock.Now())
	closer = n.rt.AppendNearest(closer, c.Key(), kademlia.K)
	return recs, closer
}

// HandleAddProvider stores a provider record if the node is a DHT server.
func (n *Node) HandleAddProvider(env *netsim.Effects, from ids.PeerID, c ids.CID, rec netsim.ProviderRecord) {
	if !n.cfg.DHTServer {
		return
	}
	n.maybeLearn(env, from)
	rec.Received = n.net.Clock.Now()
	env.DeferProviderPut(n, c, rec)
}

// PutProvider applies a deferred provider-record store at lane merge
// (netsim.ProviderSink).
func (n *Node) PutProvider(c ids.CID, rec netsim.ProviderRecord) { n.providers.Put(c, rec) }

// HandleBitswapWant answers a Bitswap WANT: whether this node has the
// block (the requester then pulls it over the same connection).
func (n *Node) HandleBitswapWant(env *netsim.Effects, from ids.PeerID, c ids.CID) bool {
	return n.blocks[c]
}

// maybeLearn adds the caller to the routing table when it is a reachable
// DHT participant, refreshing LastSeen. The table write is deferred to
// the lane merge so concurrent callers never race on the buckets.
func (n *Node) maybeLearn(env *netsim.Effects, from ids.PeerID) {
	if from.IsZero() || from == n.id {
		return
	}
	if !n.net.Reachable(from) {
		return
	}
	env.DeferLearn(n, from)
}

// LearnContact applies a deferred routing-table learn at lane merge
// (netsim.ContactLearner).
func (n *Node) LearnContact(from ids.PeerID) {
	n.rt.AddReplacingStale(
		kademlia.Contact{Peer: from, LastSeen: n.net.Clock.Now()},
		n.net.Clock.Now()-6*3600, // evict contacts silent for >6h
	)
}

// --- DHT operations (client side) ---

// seedInfos converts the routing table's closest peers to a target into
// walk seeds.
func (n *Node) seedInfos(target ids.Key) []netsim.PeerInfo {
	seeds := n.rt.AppendNearest(nil, target, kademlia.K)
	out := make([]netsim.PeerInfo, 0, len(seeds))
	for _, p := range seeds {
		out = append(out, n.net.Info(p))
	}
	return out
}

// LearnPeer force-adds a peer to the routing table: the oracle topology
// fill that stands in for join walks (scenario worlds, simtest.OracleFill).
// A full bucket may reject the peer (see kademlia.Table.Add).
func (n *Node) LearnPeer(p ids.PeerID, lastSeen netsim.Time) {
	n.rt.Add(kademlia.Contact{Peer: p, LastSeen: lastSeen})
}

// Provide advertises this node as a provider for c, per the paper: a
// GetClosestPeers walk to find the K resolvers, then AddProvider to each.
// The resolvers' ProvidersOf shows who took the record.
func (n *Node) Provide(env *netsim.Effects, c ids.CID) {
	n.walker.Provide(env, n.seedInfos(c.Key()), c, n.net.Info(n.id))
}

// ProvideDirect advertises without the iterative walk, sending
// AddProvider straight to a known resolver set — the behaviour of the
// accelerated DHT client used by large re-providers (web3.storage-class
// platforms maintain a full routing table and skip the per-CID walk,
// which is why the paper's Hydra sees 40% ADD_PROVIDER but only 3%
// FIND_NODE traffic).
func (n *Node) ProvideDirect(env *netsim.Effects, c ids.CID, resolvers []ids.PeerID) {
	rec := netsim.ProviderRecord{Provider: n.net.Info(n.id), Received: n.net.Clock.Now()}
	for _, r := range resolvers {
		// A resolver that cannot be reached misses the record; the others
		// still get it.
		_ = n.net.AddProvider(env, n.id, r, c, rec)
	}
}

// FindProviders resolves c via the DHT.
func (n *Node) FindProviders(env *netsim.Effects, c ids.CID, opts dht.FindProvidersOpts) []netsim.ProviderRecord {
	return n.walker.FindProviders(env, n.seedInfos(c.Key()), c, opts)
}

// --- Blockstore ---

// AddBlock stores content locally.
func (n *Node) AddBlock(c ids.CID) { n.blocks[c] = true }

// RemoveBlock drops content (garbage collection).
func (n *Node) RemoveBlock(c ids.CID) { delete(n.blocks, c) }

// --- Bitswap neighbours ---

// ConnectBitswap records a (one-directional) Bitswap connection to p;
// connecting to self, to the zero peer or to a neighbour already held
// is a no-op. Scenario code calls it on both ends for a bidirectional
// link.
//
// The neighbour set is kept sorted eagerly on (single-threaded) connect
// rather than sorted lazily on read: BitswapPeers is called from
// concurrent retrieval lanes, which must see a stable, read-only slice.
func (n *Node) ConnectBitswap(p ids.PeerID) {
	if p == n.id || p.IsZero() {
		return
	}
	if i, ok := n.bitswapIndex(p); !ok {
		n.bitswapSorted = slices.Insert(n.bitswapSorted, i, p)
	}
}

// bitswapIndex returns where p sits, or would be inserted, in the
// key-sorted neighbour set, and whether it is there.
func (n *Node) bitswapIndex(p ids.PeerID) (int, bool) {
	k := p.Key()
	i := sort.Search(len(n.bitswapSorted), func(i int) bool {
		return n.bitswapSorted[i].Key().Cmp(k) >= 0
	})
	return i, i < len(n.bitswapSorted) && n.bitswapSorted[i] == p
}

// BitswapPeers returns the current neighbour set in deterministic
// (key-sorted) order. The returned slice is shared; callers must not
// modify it.
func (n *Node) BitswapPeers() []ids.PeerID {
	return n.bitswapSorted
}

// --- Content retrieval (the two-step process from Section 2) ---

// Retrieve downloads c and reports whether it obtained it: first a
// 1-hop Bitswap broadcast to all connected neighbours, then — if that
// fails — a DHT FindProviders walk followed by direct Bitswap requests
// to discovered providers. A block already held is found without an
// RPC. On success the node stores the block; it does not advertise it
// (scenarios reprovide downloads on their own schedule, through
// ProvideDirect). All RPCs count against the env lane and the block
// store is deferred to the merge, so concurrent retrievals across
// shards stay race-free and deterministic.
func (n *Node) Retrieve(env *netsim.Effects, c ids.CID) bool {
	if n.blocks[c] {
		return true
	}

	// Step 1: Bitswap broadcast.
	found := false
	for _, p := range n.BitswapPeers() {
		if has, err := n.net.BitswapWant(env, n.id, p, c); err == nil && has {
			found = true
			break
		}
	}

	// Step 2: DHT resolution.
	if !found {
		for _, r := range n.FindProviders(env, c, dht.FindProvidersOpts{}) {
			if r.Provider.ID == n.id {
				continue
			}
			if has, err := n.net.BitswapWant(env, n.id, r.Provider.ID, c); err == nil && has {
				found = true
				break
			}
		}
	}

	if found {
		env.Defer(func() { n.blocks[c] = true })
	}
	return found
}

// ExpireProviders drops expired provider records; scenarios call it
// periodically (the store also filters on read).
func (n *Node) ExpireProviders() { n.providers.Expire(n.net.Clock.Now()) }

// ProviderStats returns the provider store's conservation ledger (the
// invariant suite checks Stored == Created − Pruned on every node).
func (n *Node) ProviderStats() ProviderStats {
	return n.providers.Stats()
}

// ProviderRecordsFrom counts the live records held whose provider is p
// (the attack invariants census spam records with it). Pure read.
func (n *Node) ProviderRecordsFrom(p ids.PeerID) int {
	return n.providers.CountFrom(p, n.net.Clock.Now())
}

// ProvidersOf returns the live provider records held for c, in
// deterministic (provider-key) order. Pure read.
func (n *Node) ProvidersOf(c ids.CID) []netsim.ProviderRecord {
	return n.providers.Get(c, n.net.Clock.Now())
}
