package graph

import "tcsb/internal/ids"

// Peer returns the peer ID for a node index.
func (g *Graph) Peer(i int) ids.PeerID { return g.peers[i] }

// Index returns the node index for a peer ID (-1 if absent).
func (g *Graph) Index(p ids.PeerID) int {
	for i, q := range g.peers {
		if q == p {
			return i
		}
	}
	return -1
}

// NumCrawlable returns the number of peers whose buckets were enumerated.
func (g *Graph) NumCrawlable() int {
	n := 0
	for _, c := range g.crawlable {
		if c {
			n++
		}
	}
	return n
}
