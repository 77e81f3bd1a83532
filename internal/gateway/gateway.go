// Package gateway models public HTTP-to-IPFS gateways (Section 2, "HTTP
// Gateways"): an HTTP frontend (a domain plus frontend IPs, often behind
// a CDN reverse proxy such as Cloudflare) backed by one or more IPFS
// overlay nodes that perform the actual retrievals, with an HTTP-side
// content cache.
//
// Large operators reverse-proxy a single HTTP endpoint onto multiple
// overlay nodes — the reason the paper's probe needs repeated requests to
// enumerate all of a gateway's overlay IDs.
package gateway

import (
	"net/netip"

	"tcsb/internal/ids"
	"tcsb/internal/netsim"
	"tcsb/internal/node"
)

// Gateway is a public HTTP gateway.
type Gateway struct {
	domain      string
	frontendIPs []netip.Addr
	nodes       []*node.Node
	next        int
	// cache holds the HTTP-side content cache as per-CID flag bits: one
	// map instead of parallel cached/poisoned sets (half the map
	// overhead for the common unpoisoned entry). flagPoisoned marks
	// entries planted by an attacker (the gateway-stampede scenario):
	// the entry answers like a normal hit, but the bytes served are not
	// the content the CID names. Keyed by CID, not handle: gateway
	// fetches run concurrently (one lane per gateway), where interning
	// is forbidden.
	cache map[ids.CID]uint8
	// Requests counts HTTP-side fetches (cache hits included).
	Requests int64
	// CacheHits counts fetches answered from the HTTP-side cache.
	CacheHits int64
	// PoisonedServed counts cache hits answered from a poisoned entry —
	// every one is an integrity failure served to a client.
	PoisonedServed int64
}

// Cache entry flag bits.
const (
	flagCached uint8 = 1 << iota
	flagPoisoned
)

// New creates a gateway serving the given domain from the given overlay
// nodes, with the given HTTP frontend addresses.
func New(domain string, frontendIPs []netip.Addr, nodes []*node.Node) *Gateway {
	if len(nodes) == 0 {
		panic("gateway: needs at least one overlay node")
	}
	return &Gateway{
		domain:      domain,
		frontendIPs: append([]netip.Addr(nil), frontendIPs...),
		nodes:       nodes,
		cache:       make(map[ids.CID]uint8),
	}
}

// Domain returns the gateway's HTTP domain.
func (g *Gateway) Domain() string { return g.domain }

// FrontendIPs returns the HTTP-side addresses.
func (g *Gateway) FrontendIPs() []netip.Addr {
	return append([]netip.Addr(nil), g.frontendIPs...)
}

// Nodes returns the backing overlay nodes.
func (g *Gateway) Nodes() []*node.Node { return g.nodes }

// FetchHTTP handles an HTTP GET for a CID: check the cache, otherwise
// retrieve via IPFS from the next online overlay node (round-robin,
// modelling the operator's load balancer), then cache. It returns
// whether the content was obtained and which overlay node performed the
// retrieval (nil on a cache hit); scenario drivers use the node to model
// the gateway re-providing downloaded content.
//
// The online predicate supplies backend liveness: the load balancer
// skips offline overlay nodes (health checks), and a cluster with no
// online backend is dark — the request fails before the cache, which is
// hosted on the same dead machines. A nil predicate treats every
// backend as online. Gateway-local state (request counters, HTTP cache,
// round-robin cursor) is mutated in place: the scenario assigns each
// gateway's HTTP traffic to exactly one shard lane per phase, so only
// one goroutine ever touches it.
func (g *Gateway) FetchHTTP(env *netsim.Effects, c ids.CID, online func(ids.PeerID) bool) (bool, *node.Node) {
	g.Requests++
	if !g.hasOnline(online) {
		return false, nil // the whole cluster is dark
	}
	if f := g.cache[c]; f&flagCached != 0 {
		g.CacheHits++
		if f&flagPoisoned != 0 {
			g.PoisonedServed++
		}
		return true, nil
	}
	nd := g.nextOnline(online)
	found := nd.Retrieve(env, c)
	if found {
		g.cache[c] |= flagCached
	}
	return found, nd
}

// Poison plants a poisoned cache entry for c: subsequent fetches hit
// the cache and serve attacker-controlled bytes. Idempotent. A real
// cache-poisoning attack tricks the gateway into caching a bogus
// response for a popular path; the model skips the trick and plants the
// outcome directly.
func (g *Gateway) Poison(c ids.CID) {
	g.cache[c] = flagCached | flagPoisoned
}

// hasOnline reports whether any backend is online, without moving the
// round-robin cursor (cache hits must not advance it).
func (g *Gateway) hasOnline(online func(ids.PeerID) bool) bool {
	if online == nil {
		return len(g.nodes) > 0
	}
	for _, nd := range g.nodes {
		if online(nd.ID()) {
			return true
		}
	}
	return false
}

// nextOnline advances the round-robin cursor to the next online backend
// (callers ensure one exists). With every backend online it reduces to
// the plain rotation, so baseline worlds are untouched.
func (g *Gateway) nextOnline(online func(ids.PeerID) bool) *node.Node {
	for i := 0; i < len(g.nodes); i++ {
		nd := g.nodes[(g.next+i)%len(g.nodes)]
		if online == nil || online(nd.ID()) {
			g.next += i + 1
			return nd
		}
	}
	return nil
}
