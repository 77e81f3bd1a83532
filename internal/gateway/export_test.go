package gateway

import "tcsb/internal/ids"

// OverlayIDs returns the overlay identities of the backing nodes.
func (g *Gateway) OverlayIDs() []ids.PeerID {
	out := make([]ids.PeerID, len(g.nodes))
	for i, n := range g.nodes {
		out[i] = n.ID()
	}
	return out
}
