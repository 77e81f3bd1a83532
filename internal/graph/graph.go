// Package graph turns crawl snapshots into topology graphs and implements
// the analyses of Section 4: degree distributions (Fig. 7) and resilience
// to random vs targeted node removal (Fig. 8).
//
// Out-degrees come from the enumerated k-buckets of crawlable peers;
// in-degrees are estimated from presence in other peers' buckets (an
// undercount, exactly as the paper notes, because uncrawlable peers'
// buckets are invisible). For the removal experiments the graph is
// interpreted as undirected, allowing all observable connections to be
// used for communication.
package graph

import (
	"math/rand"

	"tcsb/internal/crawler"
	"tcsb/internal/ids"
)

// Graph is a DHT topology snapshot. Node i is the snapshot's i-th
// observation (discovery order); the peers slice maps indices back to
// peer IDs.
type Graph struct {
	peers     []ids.PeerID
	out       [][]int32
	inDeg     []int
	crawlable []bool
}

// FromSnapshot builds the directed topology graph of one crawl.
func FromSnapshot(s *crawler.Snapshot) *Graph {
	n := len(s.Peers)
	g := &Graph{
		peers:     make([]ids.PeerID, n),
		out:       make([][]int32, n),
		inDeg:     make([]int, n),
		crawlable: make([]bool, n),
	}
	// Contacts are snapshot positions, which are node indices, and
	// never the peer itself: the out lists alias them (read-only).
	for i := range s.Peers {
		o := &s.Peers[i]
		g.peers[i] = o.Peer
		g.crawlable[i] = o.Crawlable
		g.out[i] = o.Contacts
		for _, j := range o.Contacts {
			g.inDeg[j]++
		}
	}
	return g
}

// N returns the node count (crawlable and uncrawlable).
func (g *Graph) N() int { return len(g.peers) }

// Edges returns the total number of directed edges.
func (g *Graph) Edges() int {
	total := 0
	for _, e := range g.out {
		total += len(e)
	}
	return total
}

// OutDegrees returns the out-degree of every crawlable node (uncrawlable
// leaves have unknown, not zero, out-degree and are excluded — Fig. 7
// plots crawlable nodes only).
func (g *Graph) OutDegrees() []float64 {
	out := make([]float64, 0, len(g.out))
	for i, e := range g.out {
		if g.crawlable[i] {
			out = append(out, float64(len(e)))
		}
	}
	return out
}

// InDegrees returns the estimated in-degree of every node: the number of
// crawled buckets it appears in.
func (g *Graph) InDegrees() []float64 {
	out := make([]float64, len(g.inDeg))
	for i, d := range g.inDeg {
		out[i] = float64(d)
	}
	return out
}

// Undirected returns the symmetrized adjacency lists (deduplicated),
// the interpretation used for the removal experiments.
func (g *Graph) Undirected() [][]int32 {
	n := len(g.peers)
	adj := make([][]int32, n)
	seen := make(map[int64]bool, g.Edges())
	addEdge := func(a, b int32) {
		if a == b {
			return
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		k := int64(lo)<<32 | int64(hi)
		if seen[k] {
			return
		}
		seen[k] = true
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for i, edges := range g.out {
		for _, j := range edges {
			addEdge(int32(i), j)
		}
	}
	return adj
}

// RandomOrder returns a uniformly random removal order over n nodes.
func RandomOrder(n int, rng *rand.Rand) []int {
	order := rng.Perm(n)
	return order
}

// TargetedOrder returns a removal order that always removes the node with
// the highest current degree in the undirected graph, recomputing degrees
// after each removal (the "targeted attack" of Fig. 8). Implemented with
// a lazy max-heap over degrees for O((V+E) log V).
func TargetedOrder(adj [][]int32) []int {
	n := len(adj)
	deg := make([]int, n)
	for i := range adj {
		deg[i] = len(adj[i])
	}
	// Lazy heap of (degree, node) pairs; stale entries skipped on pop.
	h := &degHeap{}
	for i := 0; i < n; i++ {
		h.push(degEntry{deg: deg[i], node: i})
	}
	removed := make([]bool, n)
	order := make([]int, 0, n)
	for len(order) < n {
		e := h.pop()
		if removed[e.node] || e.deg != deg[e.node] {
			continue // stale
		}
		removed[e.node] = true
		order = append(order, e.node)
		for _, nb := range adj[e.node] {
			if !removed[nb] {
				deg[nb]--
				h.push(degEntry{deg: deg[nb], node: int(nb)})
			}
		}
	}
	return order
}

type degEntry struct {
	deg  int
	node int
}

type degHeap struct{ a []degEntry }

func (h *degHeap) push(e degEntry) {
	h.a = append(h.a, e)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p].deg >= h.a[i].deg {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *degHeap) pop() degEntry {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < last && h.a[l].deg > h.a[big].deg {
			big = l
		}
		if r < last && h.a[r].deg > h.a[big].deg {
			big = r
		}
		if big == i {
			break
		}
		h.a[i], h.a[big] = h.a[big], h.a[i]
		i = big
	}
	return top
}

// RemovalCurve computes, for k = 0..n-1, the fraction of the remaining
// nodes that belong to the largest connected component after removing the
// first k nodes of `order` from the undirected graph. It runs the process
// in reverse (incremental node addition with union-find), O((V+E) α(V)).
func RemovalCurve(adj [][]int32, order []int) []float64 {
	n := len(adj)
	if len(order) != n {
		panic("graph: removal order must cover every node")
	}
	parent := make([]int32, n)
	size := make([]int32, n)
	present := make([]bool, n)
	for i := range parent {
		parent[i] = int32(i)
		size[i] = 1
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) int32 {
		ra, rb := find(a), find(b)
		if ra == rb {
			return size[ra]
		}
		if size[ra] < size[rb] {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		size[ra] += size[rb]
		return size[ra]
	}

	curve := make([]float64, n)
	var maxComp int32
	// Add nodes in reverse removal order; after adding order[k] the
	// present set is order[k:], i.e. the state after k removals.
	for k := n - 1; k >= 0; k-- {
		v := order[k]
		present[v] = true
		if maxComp == 0 {
			maxComp = 1
		}
		for _, nb := range adj[v] {
			if present[nb] {
				if s := union(int32(v), nb); s > maxComp {
					maxComp = s
				}
			}
		}
		if s := size[find(int32(v))]; s > maxComp {
			maxComp = s
		}
		curve[k] = float64(maxComp) / float64(n-k)
	}
	return curve
}

// SampleCurve extracts curve values at the given removal fractions
// (0 <= f < 1), interpolating to the nearest removal step.
func SampleCurve(curve []float64, fractions []float64) []float64 {
	out := make([]float64, len(fractions))
	n := len(curve)
	for i, f := range fractions {
		k := int(f * float64(n))
		if k >= n {
			k = n - 1
		}
		if k < 0 {
			k = 0
		}
		out[i] = curve[k]
	}
	return out
}
