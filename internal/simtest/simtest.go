// Package simtest provides shared fixtures for tests: quick
// construction of small simulated IPFS networks with oracle-filled
// routing tables, without pulling in the full scenario generator.
package simtest

import (
	"net/netip"

	"tcsb/internal/ids"
	"tcsb/internal/maddr"
	"tcsb/internal/netsim"
	"tcsb/internal/node"
)

// Net bundles a network with its nodes for convenient test access.
type Net struct {
	Network *netsim.Network
	Nodes   []*node.Node
}

// BuildServers creates n reachable DHT server nodes with deterministic
// IDs (PeerIDFromSeed(0..n-1)) and synthetic public IPs, then
// oracle-fills every routing table by offering each node every other
// peer (buckets keep the first K per prefix length).
func BuildServers(n int) *Net {
	nw := netsim.New()
	nodes := make([]*node.Node, n)
	for i := 0; i < n; i++ {
		id := ids.PeerIDFromSeed(uint64(i))
		nd := node.New(id, nw, node.Config{DHTServer: true})
		ip := netip.AddrFrom4([4]byte{52, byte(i >> 16), byte(i >> 8), byte(i)})
		nw.Attach(id, nd, netsim.HostConfig{
			Reachable: true,
			Addrs:     []maddr.Addr{maddr.New(ip, maddr.TCP, 4001)},
		})
		nodes[i] = nd
	}
	OracleFill(nodes)
	return &Net{Network: nw, Nodes: nodes}
}

// OracleFill offers every node every other node's ID, letting k-buckets
// retain what they can. It produces an exact Kademlia topology without
// simulating join traffic.
func OracleFill(nodes []*node.Node) {
	for _, nd := range nodes {
		for _, other := range nodes {
			if other != nd {
				nd.LearnPeer(other.ID(), 0)
			}
		}
	}
}

// Seeds returns PeerInfos for the first k nodes, for use as bootstrap or
// crawl seeds.
func (n *Net) Seeds(k int) []netsim.PeerInfo {
	if k > len(n.Nodes) {
		k = len(n.Nodes)
	}
	out := make([]netsim.PeerInfo, k)
	for i := 0; i < k; i++ {
		out[i] = n.Network.Info(n.Nodes[i].ID())
	}
	return out
}
