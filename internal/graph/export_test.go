package graph

import "tcsb/internal/ids"

// Peer returns the peer ID for a node index.
func (g *Graph) Peer(i int) ids.PeerID { return g.peers[i] }

// Index returns the node index for a peer ID (-1 if absent).
func (g *Graph) Index(p ids.PeerID) int {
	if i, ok := g.index[p]; ok {
		return i
	}
	return -1
}
