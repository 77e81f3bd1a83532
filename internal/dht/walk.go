// Package dht implements the client side of the IPFS Kademlia DHT: the
// iterative lookup ("DHT walk") and the three operations built on it —
// GetClosestPeers, Provide and FindProviders — exactly as described in
// Section 2 of the paper.
//
// The walk repeatedly queries the closest known-but-unqueried peers for
// contacts even closer to the target, terminating when the K closest
// known peers have all been queried (no closer peers are being found).
// FindProviders additionally asks each encountered node for provider
// records; the standard variant terminates once K providers are known,
// while the exhaustive variant (the paper's modified implementation used
// to collect complete provider sets) always queries all resolvers.
//
// A walk returns only what it found. Its traffic is counted where every
// RPC is, in netsim's per-type message counters through the caller's
// Effects lane; a walk keeps no tally of its own.
package dht

import (
	"slices"
	"sort"
	"sync"

	"tcsb/internal/ids"
	"tcsb/internal/kademlia"
	"tcsb/internal/netsim"
)

// K is the lookup fan-out and resolver-set size (20 in IPFS: provider
// records live on the 20 closest peers to the CID).
const K = kademlia.K

// Alpha is the lookup concurrency of go-libp2p-kad-dht. The simulator's
// RPCs are synchronous so Alpha does not buy wall-clock parallelism, but
// it still bounds how many peers are queried per round, which shapes the
// query traffic the Hydra vantage point observes.
const Alpha = 3

// Walker performs DHT walks on behalf of one peer.
type Walker struct {
	net  *netsim.Network
	self ids.PeerID
}

// NewWalker creates a walker acting as `self` on the given network.
func NewWalker(net *netsim.Network, self ids.PeerID) *Walker {
	return &Walker{net: net, self: self}
}

// walkScratch is the reusable state of one walk: the candidate set, RPC
// response buffers, and the provider collection. A walk resets it on
// entry and copies its results out on exit, so a pooled scratch serves
// arbitrarily many walks — the steady-state walk allocates nothing but
// its final result.
//
// The candidate set hashes nothing. Candidates sit in peers and flags in
// arrival order, so an index names one candidate for the whole walk.
// order lists those indices by increasing XOR distance to the target,
// each next to the leading 64 bits of its distance, so add's binary
// search reads a full key only on a prefix tie. XOR with the target is a
// bijection, so a candidate at equal distance is the same peer: the
// search that places a new candidate also deduplicates it.
type walkScratch struct {
	target ids.Key
	tp     uint64 // target.Prefix64()
	peers  []ids.PeerID
	flags  []uint8 // flagQueried/flagFailed bits of peers[i]
	order  []cand
	batch  []int32 // candidate indices: nextBatch's and closest's result

	closer []ids.PeerID            // FindNode / GetProviders response buffer
	recs   []netsim.ProviderRecord // GetProviders record response buffer

	provs []netsim.ProviderRecord // one record per provider, in provider-key order
}

// cand is one entry of the distance order: the leading 64 bits of a
// candidate's distance to the target, and the candidate's index.
type cand struct {
	d uint64
	i int32
}

const (
	flagQueried = 1 << iota
	flagFailed
)

// walkScratchPool recycles scratch across walks process-wide. Pooling by
// goroutine concurrency — instead of pinning one scratch per Effects
// lane — matters at scale: crawl waves and collection phases fan out
// over tens of thousands of lanes, and a scratch on each (sized to the
// largest walk it ever ran) held hundreds of megabytes live at
// scale.10x. Scratch contents never reach the output, so which pooled
// instance a walk draws is invisible to the determinism contract.
var walkScratchPool = sync.Pool{New: func() any { return new(walkScratch) }}

// getScratch draws a walk scratch from the pool. Callers must release it
// before returning.
func getScratch() *walkScratch { return walkScratchPool.Get().(*walkScratch) }

// release returns a scratch to the pool.
func (sc *walkScratch) release() { walkScratchPool.Put(sc) }

// reset clears the per-walk state for a walk toward target, keeping
// capacity.
func (sc *walkScratch) reset(target ids.Key) {
	sc.target, sc.tp = target, target.Prefix64()
	sc.peers = sc.peers[:0]
	sc.flags = sc.flags[:0]
	sc.order = sc.order[:0]
	sc.provs = sc.provs[:0]
}

// add registers candidate p unless it is the zero ID or already known.
func (sc *walkScratch) add(p ids.PeerID) {
	if p.IsZero() {
		return
	}
	d := p.Prefix64() ^ sc.tp
	lo, hi := 0, len(sc.order)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		switch c := sc.order[m]; {
		case c.d < d:
			lo = m + 1
		case c.d > d:
			hi = m
		case sc.peers[c.i] == p:
			return // equal distance: the same peer
		case ids.Closer(sc.peers[c.i].Key(), p.Key(), sc.target):
			lo = m + 1
		default:
			hi = m
		}
	}
	sc.order = slices.Insert(sc.order, lo, cand{d, int32(len(sc.peers))})
	sc.peers = append(sc.peers, p)
	sc.flags = append(sc.flags, 0)
}

// addAnswer registers every contact of a FindNode/GetProviders answer
// except the walker itself.
func (sc *walkScratch) addAnswer(closer []ids.PeerID, self ids.PeerID) {
	for _, p := range closer {
		if p != self {
			sc.add(p)
		}
	}
}

// addProvider keeps the first record seen from each provider, inserted
// in provider-key order: the deterministic order FindProviders returns.
func (sc *walkScratch) addProvider(r netsim.ProviderRecord) {
	k := r.Provider.ID.Key()
	i := sort.Search(len(sc.provs), func(j int) bool {
		return sc.provs[j].Provider.ID.Key().Cmp(k) >= 0
	})
	if i == len(sc.provs) || sc.provs[i].Provider.ID != r.Provider.ID {
		sc.provs = slices.Insert(sc.provs, i, r)
	}
}

// nextBatch refills sc.batch with the indices of up to alpha unqueried
// candidates among the closest `horizon` non-failed ones. An empty
// batch means convergence.
func (sc *walkScratch) nextBatch(alpha, horizon int) []int32 {
	sc.batch = sc.batch[:0]
	seen := 0
	for _, c := range sc.order {
		f := sc.flags[c.i]
		if f&flagFailed != 0 {
			continue
		}
		seen++
		if seen > horizon {
			break
		}
		if f&flagQueried == 0 {
			sc.batch = append(sc.batch, c.i)
			if len(sc.batch) == alpha {
				break
			}
		}
	}
	return sc.batch
}

// closest refills sc.batch with the indices of the n closest non-failed
// candidates, closest first.
func (sc *walkScratch) closest(n int) []int32 {
	sc.batch = sc.batch[:0]
	for _, c := range sc.order {
		if len(sc.batch) == n {
			break
		}
		if sc.flags[c.i]&flagFailed == 0 {
			sc.batch = append(sc.batch, c.i)
		}
	}
	return sc.batch
}

// GetClosestPeers walks the DHT from the seed peers toward target and
// returns the K closest reachable peers found, in increasing distance
// order.
func (w *Walker) GetClosestPeers(env *netsim.Effects, seeds []netsim.PeerInfo, target ids.Key) []netsim.PeerInfo {
	sc := getScratch()
	defer sc.release()
	w.walk(env, sc, seeds, target)
	out := make([]netsim.PeerInfo, 0, K)
	for _, i := range sc.closest(K) {
		out = append(out, w.net.Info(sc.peers[i]))
	}
	return out
}

// walk runs the iterative FindNode lookup toward target over the given
// scratch, leaving the candidate set populated for the caller to read.
func (w *Walker) walk(env *netsim.Effects, sc *walkScratch, seeds []netsim.PeerInfo, target ids.Key) {
	sc.reset(target)
	for _, s := range seeds {
		sc.add(s.ID)
	}
	for {
		batch := sc.nextBatch(Alpha, K)
		if len(batch) == 0 {
			break
		}
		for _, i := range batch {
			sc.flags[i] |= flagQueried
			closer, err := w.net.FindNode(env, sc.closer[:0], w.self, sc.peers[i], target)
			sc.closer = closer[:0]
			if err != nil {
				sc.flags[i] |= flagFailed
				continue
			}
			sc.addAnswer(closer, w.self)
		}
	}
}

// Provide advertises `self` (described by selfInfo, which may include
// circuit addresses for NAT-ed providers) as a provider for c: it locates
// the K closest peers to c's key and sends each a provider record.
func (w *Walker) Provide(env *netsim.Effects, seeds []netsim.PeerInfo, c ids.CID, selfInfo netsim.PeerInfo) {
	sc := getScratch()
	defer sc.release()
	w.walk(env, sc, seeds, c.Key())
	rec := netsim.ProviderRecord{Provider: selfInfo, Received: w.net.Clock.Now()}
	for _, i := range sc.closest(K) {
		// A resolver that cannot be reached misses the record; the others
		// still get it.
		_ = w.net.AddProvider(env, w.self, sc.peers[i], c, rec)
	}
}

// FindProvidersOpts controls FindProviders termination. The standard
// walk stops once it holds K providers (20 in IPFS).
type FindProvidersOpts struct {
	// Exhaustive queries every resolver regardless of how many providers
	// have been found — the paper's modified implementation (§3, Appendix
	// A) used to collect complete provider sets.
	Exhaustive bool
}

// FindProviders resolves c to provider records by walking the DHT toward
// c's key, querying every encountered peer for provider records. It
// returns the first record seen from each provider, in provider-key
// order, in a freshly allocated slice (callers retain it); all
// intermediate walk state comes from the pooled scratch.
func (w *Walker) FindProviders(env *netsim.Effects, seeds []netsim.PeerInfo, c ids.CID, opts FindProvidersOpts) []netsim.ProviderRecord {
	sc := getScratch()
	defer sc.release()
	sc.reset(c.Key())
	for _, s := range seeds {
		sc.add(s.ID)
	}
	done := func() bool {
		return !opts.Exhaustive && len(sc.provs) >= K
	}
	for !done() {
		batch := sc.nextBatch(Alpha, K)
		if len(batch) == 0 {
			break
		}
		for _, i := range batch {
			if done() {
				break
			}
			sc.flags[i] |= flagQueried
			recs, closer, err := w.net.GetProviders(env, sc.recs[:0], sc.closer[:0], w.self, sc.peers[i], c)
			sc.recs, sc.closer = recs[:0], closer[:0]
			if err != nil {
				sc.flags[i] |= flagFailed
				continue
			}
			for _, r := range recs {
				sc.addProvider(r)
			}
			sc.addAnswer(closer, w.self)
		}
	}
	out := make([]netsim.ProviderRecord, len(sc.provs))
	copy(out, sc.provs)
	return out
}
