package node

import (
	"net/netip"
	"testing"

	"tcsb/internal/dht"
	"tcsb/internal/ids"
	"tcsb/internal/intern"
	"tcsb/internal/maddr"
	"tcsb/internal/netsim"
)

// buildNet creates n publicly reachable DHT server nodes with
// oracle-filled routing tables: every node is offered every other peer,
// buckets keeping the first k per prefix length.
func buildNet(t testing.TB, n int) (*netsim.Network, []*Node) {
	t.Helper()
	net := netsim.New()
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		id := ids.PeerIDFromSeed(uint64(i))
		nd := New(id, net, Config{DHTServer: true})
		ip := netip.AddrFrom4([4]byte{52, byte(i >> 16), byte(i >> 8), byte(i)})
		net.Attach(id, nd, netsim.HostConfig{
			Reachable: true,
			Addrs:     []maddr.Addr{maddr.New(ip, maddr.TCP, 4001)},
		})
		nodes[i] = nd
	}
	for _, nd := range nodes {
		for _, other := range nodes {
			if other != nd {
				nd.LearnPeer(other.ID(), 0)
			}
		}
	}
	return net, nodes
}

func bruteForceClosest(nodes []*Node, target ids.Key, k int) map[ids.PeerID]bool {
	peers := make([]ids.PeerID, len(nodes))
	for i, nd := range nodes {
		peers[i] = nd.ID()
	}
	for i := 1; i < len(peers); i++ {
		for j := i; j > 0 && peers[j].Key().Xor(target).Cmp(peers[j-1].Key().Xor(target)) < 0; j-- {
			peers[j], peers[j-1] = peers[j-1], peers[j]
		}
	}
	out := make(map[ids.PeerID]bool)
	for i := 0; i < k && i < len(peers); i++ {
		out[peers[i]] = true
	}
	return out
}

func TestWalkFindsTrueClosestPeers(t *testing.T) {
	_, nodes := buildNet(t, 300)
	for trial := 0; trial < 5; trial++ {
		target := ids.KeyFromUint64(uint64(1000 + trial))
		got, stats := nodesWalker(nodes[trial]).GetClosestPeers(nil, seedsOf(nodes[trial], target), target)
		want := bruteForceClosest(nodes, target, dht.K)
		if len(got) != dht.K {
			t.Fatalf("walk returned %d peers, want %d", len(got), dht.K)
		}
		match := 0
		for _, pi := range got {
			if want[pi.ID] {
				match++
			}
		}
		// The walker itself never appears in results; allow one slot of
		// slack when the walker is among the true closest.
		if match < dht.K-1 {
			t.Errorf("trial %d: only %d/%d of returned peers are truly closest", trial, match, dht.K)
		}
		if stats.Queried == 0 {
			t.Error("walk queried no peers")
		}
	}
}

// nodesWalker/seedsOf expose the node's internal walk entry points for
// direct testing without duplicating logic.
func nodesWalker(n *Node) *dht.Walker { return n.walker }
func seedsOf(n *Node, target ids.Key) []netsim.PeerInfo {
	return n.seedInfos(target)
}

func TestProvideAndFindProviders(t *testing.T) {
	_, nodes := buildNet(t, 200)
	provider := nodes[7]
	c := ids.CIDFromSeed(42)
	provider.AddBlock(c)

	resolvers, _ := provider.Provide(nil, c)
	if len(resolvers) == 0 {
		t.Fatal("Provide stored no records")
	}
	if len(resolvers) > dht.K {
		t.Fatalf("Provide stored on %d peers, max %d", len(resolvers), dht.K)
	}

	// Resolvers must be among the truly closest to the CID.
	want := bruteForceClosest(nodes, c.Key(), dht.K+1)
	for _, r := range resolvers {
		if !want[r] {
			t.Errorf("resolver %s is not among the closest peers to the CID", r.Short())
		}
	}

	// A different node resolves the CID.
	recs, stats := nodes[150].FindProviders(nil, c, dht.FindProvidersOpts{})
	if len(recs) != 1 {
		t.Fatalf("FindProviders returned %d records, want 1", len(recs))
	}
	if recs[0].Provider.ID != provider.ID() {
		t.Errorf("provider = %s, want %s", recs[0].Provider.ID.Short(), provider.ID().Short())
	}
	if stats.Queried == 0 {
		t.Error("FindProviders performed no queries")
	}
}

// TestFindProvidersStopsAtK: with more than K providers, the standard
// walk stops querying once it holds K of them, while the exhaustive walk
// queries on and collects everyone.
func TestFindProvidersStopsAtK(t *testing.T) {
	_, nodes := buildNet(t, 200)
	c := ids.CIDFromSeed(77)
	// 30 providers advertise.
	for i := 0; i < 30; i++ {
		nodes[i].AddBlock(c)
		nodes[i].Provide(nil, c)
	}
	recs, std := nodes[150].FindProviders(nil, c, dht.FindProvidersOpts{})
	if len(recs) < dht.K {
		t.Fatalf("standard walk found %d providers, want >= K = %d", len(recs), dht.K)
	}
	all, exh := nodes[150].FindProviders(nil, c, dht.FindProvidersOpts{Exhaustive: true})
	if len(all) != 30 {
		t.Fatalf("exhaustive walk found %d providers, want 30", len(all))
	}
	if std.Queried >= exh.Queried {
		t.Fatalf("standard walk queried %d peers, exhaustive %d: the standard walk did not stop at K",
			std.Queried, exh.Queried)
	}
}

func TestExhaustiveEqualsStandardForSparseCIDs(t *testing.T) {
	// The paper's ethics appendix: for CIDs with < 20 providers the
	// modified (exhaustive) FindProviders behaves like the original.
	_, nodes := buildNet(t, 150)
	c := ids.CIDFromSeed(5)
	for i := 0; i < 3; i++ {
		nodes[i].AddBlock(c)
		nodes[i].Provide(nil, c)
	}
	std, _ := nodes[100].FindProviders(nil, c, dht.FindProvidersOpts{})
	exh, _ := nodes[100].FindProviders(nil, c, dht.FindProvidersOpts{Exhaustive: true})
	if len(std) != len(exh) {
		t.Fatalf("standard found %d, exhaustive %d — must match for sparse CIDs", len(std), len(exh))
	}
}

func TestRetrieveViaBitswapNeighbour(t *testing.T) {
	_, nodes := buildNet(t, 50)
	c := ids.CIDFromSeed(1)
	holder, downloader := nodes[1], nodes[2]
	holder.AddBlock(c)
	downloader.ConnectBitswap(holder.ID())

	res := downloader.Retrieve(nil, c)
	if !res.Found || !res.ViaBitswap {
		t.Fatalf("Retrieve = %+v, want found via bitswap", res)
	}
	if res.Provider != holder.ID() {
		t.Errorf("provider = %s", res.Provider.Short())
	}
	if !downloader.HasBlock(c) {
		t.Error("downloader did not store the block")
	}
}

func TestRetrieveViaDHT(t *testing.T) {
	_, nodes := buildNet(t, 200)
	c := ids.CIDFromSeed(9)
	provider, downloader := nodes[3], nodes[120]
	provider.AddBlock(c)
	provider.Provide(nil, c)

	res := downloader.Retrieve(nil, c)
	if !res.Found || res.ViaBitswap {
		t.Fatalf("Retrieve = %+v, want found via DHT", res)
	}
	if res.Provider != provider.ID() {
		t.Errorf("provider = %s", res.Provider.Short())
	}
	if res.Walk.Queried == 0 {
		t.Error("no DHT queries recorded")
	}
	if !downloader.HasBlock(c) {
		t.Error("downloader did not store the block")
	}
}

func TestRetrieveMissingContent(t *testing.T) {
	_, nodes := buildNet(t, 100)
	res := nodes[5].Retrieve(nil, ids.CIDFromSeed(12345))
	if res.Found {
		t.Fatal("retrieved content nobody provides")
	}
	if res.Walk.Queried == 0 {
		t.Error("missing content should still trigger a DHT walk")
	}
}

func TestNATProviderViaRelay(t *testing.T) {
	net, nodes := buildNet(t, 200)

	// A NAT-ed DHT client joins, using nodes[0] as circuit relay.
	natID := ids.PeerIDFromSeed(9999)
	nat := New(natID, net, Config{DHTServer: false})
	relay := nodes[0]
	relayIP := net.PrimaryIP(relay.ID())
	circuit := maddr.NewCircuit(relayIP, maddr.TCP, 4001, relay.ID().String())
	net.Attach(natID, nat, netsim.HostConfig{
		Reachable: false,
		Relay:     relay.ID(),
		Addrs:     []maddr.Addr{circuit},
	})
	// NAT node knows some peers (outbound connections work fine).
	for i := 0; i < 50; i++ {
		nat.LearnPeer(nodes[i].ID(), 0)
	}

	c := ids.CIDFromSeed(31)
	nat.AddBlock(c)
	if rs, _ := nat.Provide(nil, c); len(rs) == 0 {
		t.Fatal("NAT-ed node could not publish provider records")
	}

	// The advertised record carries the circuit address.
	recs, _ := nodes[150].FindProviders(nil, c, dht.FindProvidersOpts{})
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	if len(recs[0].Provider.Addrs) != 1 || !recs[0].Provider.Addrs[0].Circuit {
		t.Fatalf("provider record addrs = %v, want circuit address", recs[0].Provider.Addrs)
	}

	// Retrieval succeeds through the relay.
	res := nodes[150].Retrieve(nil, c)
	if !res.Found || res.Provider != natID {
		t.Fatalf("Retrieve via relay = %+v", res)
	}

	// Relay offline: the NAT-ed provider becomes unreachable.
	net.SetOnline(relay.ID(), false)
	res2 := nodes[160].Retrieve(nil, c)
	if res2.Found && res2.Provider == natID {
		t.Fatal("retrieved from NAT-ed provider while its relay was offline")
	}
}

func TestDHTClientDoesNotServe(t *testing.T) {
	net, nodes := buildNet(t, 20)
	clientID := ids.PeerIDFromSeed(500)
	client := New(clientID, net, Config{DHTServer: false})
	net.Attach(clientID, client, netsim.HostConfig{Reachable: true})
	client.LearnPeer(nodes[0].ID(), 0)

	if got := client.HandleFindNode(nil, nodes[0].ID(), ids.KeyFromUint64(0), nil); got != nil {
		t.Error("DHT client answered FindNode")
	}
	recs, closer := client.HandleGetProviders(nil, nodes[0].ID(), ids.CIDFromSeed(1), nil, nil)
	if recs != nil || closer != nil {
		t.Error("DHT client answered GetProviders")
	}
	client.HandleAddProvider(nil, nodes[0].ID(), ids.CIDFromSeed(1), netsim.ProviderRecord{})
	if len(client.ProvidersOf(ids.CIDFromSeed(1))) != 0 {
		t.Error("DHT client stored a provider record")
	}
}

func TestServerLearnsCallers(t *testing.T) {
	net, nodes := buildNet(t, 5)
	a := nodes[0]
	// A server that joined after the oracle fill: a does not know it.
	newID := ids.PeerIDFromSeed(12345)
	b := New(newID, net, Config{DHTServer: true})
	net.Attach(newID, b, netsim.HostConfig{Reachable: true})
	if inTable(a, newID) {
		t.Fatal("setup: a already knows the new server")
	}
	a.HandleFindNode(nil, newID, ids.KeyFromUint64(0), nil)
	if !inTable(a, newID) {
		t.Error("server did not learn reachable caller")
	}
}

// inTable reports whether p is in nd's routing table: a stored peer is
// the nearest contact to its own key.
func inTable(nd *Node, p ids.PeerID) bool {
	nearest := nd.RoutingTable().AppendNearest(nil, p.Key(), 1)
	return len(nearest) == 1 && nearest[0] == p
}

func TestBitswapConnectionManager(t *testing.T) {
	net := netsim.New()
	id := ids.PeerIDFromSeed(0)
	nd := New(id, net, Config{DHTServer: true})
	net.Attach(id, nd, netsim.HostConfig{Reachable: true})

	for i := 1; i <= 3; i++ {
		nd.ConnectBitswap(ids.PeerIDFromSeed(uint64(i)))
	}
	// Reconnecting, self-connection and the zero peer are no-ops.
	nd.ConnectBitswap(ids.PeerIDFromSeed(1))
	nd.ConnectBitswap(id)
	nd.ConnectBitswap(ids.PeerID{})
	peers := nd.BitswapPeers()
	if len(peers) != 3 {
		t.Fatalf("neighbour count = %d, want 3", len(peers))
	}
	for i := 1; i < len(peers); i++ {
		if peers[i].Key().Cmp(peers[i-1].Key()) <= 0 {
			t.Fatal("BitswapPeers not in deterministic sorted order")
		}
	}
}

func TestProviderStoreTTL(t *testing.T) {
	s := NewProviderStore(100, intern.NewTables())
	c := ids.CIDFromSeed(1)
	rec := netsim.ProviderRecord{Provider: netsim.PeerInfo{ID: ids.PeerIDFromSeed(1)}, Received: 10}
	s.Put(c, rec)
	if got := len(s.Get(c, 50)); got != 1 {
		t.Fatalf("live record count = %d", got)
	}
	if got := len(s.Get(c, 110)); got != 0 {
		t.Fatalf("expired record still returned (count %d)", got)
	}
	// Get is a pure read (concurrent walk lanes call it); pruning is
	// Expire's job.
	if s.CIDs() != 1 {
		t.Error("Get mutated the store")
	}
	s.Expire(110)
	if s.CIDs() != 0 {
		t.Error("expired CID entry not pruned by Expire")
	}
}

func TestProviderStoreRefresh(t *testing.T) {
	s := NewProviderStore(100, intern.NewTables())
	c := ids.CIDFromSeed(1)
	p := netsim.PeerInfo{ID: ids.PeerIDFromSeed(1)}
	s.Put(c, netsim.ProviderRecord{Provider: p, Received: 0})
	s.Put(c, netsim.ProviderRecord{Provider: p, Received: 90}) // re-advertisement
	if got := len(s.Get(c, 150)); got != 1 {
		t.Fatalf("refreshed record expired: count = %d", got)
	}
	if s.Len(150) != 1 {
		t.Fatalf("Len = %d", s.Len(150))
	}
	s.Expire(300)
	if s.Len(300) != 0 || s.CIDs() != 0 {
		t.Error("Expire left stale state")
	}
}

func TestProviderStoreDeterministicOrder(t *testing.T) {
	s := NewProviderStore(1000, intern.NewTables())
	c := ids.CIDFromSeed(1)
	for i := 0; i < 10; i++ {
		s.Put(c, netsim.ProviderRecord{Provider: netsim.PeerInfo{ID: ids.PeerIDFromSeed(uint64(i))}})
	}
	a := s.Get(c, 0)
	b := s.Get(c, 0)
	for i := range a {
		if a[i].Provider.ID != b[i].Provider.ID {
			t.Fatal("Get order not deterministic")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].Provider.ID.Key().Cmp(a[i-1].Provider.ID.Key()) <= 0 {
			t.Fatal("Get not sorted by provider key")
		}
	}
}

func TestWalkToleratesOfflinePeers(t *testing.T) {
	net, nodes := buildNet(t, 200)
	// Take 30% of nodes offline.
	for i := 0; i < 60; i++ {
		net.SetOnline(nodes[i*3].ID(), false)
	}
	target := ids.KeyFromUint64(555)
	got, stats := nodesWalker(nodes[1]).GetClosestPeers(nil, seedsOf(nodes[1], target), target)
	if len(got) == 0 {
		t.Fatal("walk found nothing in a churned network")
	}
	if stats.Failed == 0 {
		t.Error("walk reported no failures despite offline peers")
	}
	for _, pi := range got {
		if !net.Online(pi.ID) {
			t.Errorf("walk returned offline peer %s", pi.ID.Short())
		}
	}
}

func BenchmarkGetClosestPeers(b *testing.B) {
	_, nodes := buildNet(b, 500)
	target := ids.KeyFromUint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodesWalker(nodes[i%100]).GetClosestPeers(nil, seedsOf(nodes[i%100], target), target)
	}
}

func BenchmarkProvide(b *testing.B) {
	_, nodes := buildNet(b, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := ids.CIDFromSeed(uint64(i))
		nodes[i%100].Provide(nil, c)
	}
}

func BenchmarkRetrieveDHT(b *testing.B) {
	_, nodes := buildNet(b, 500)
	c := ids.CIDFromSeed(1)
	nodes[0].AddBlock(c)
	nodes[0].Provide(nil, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dl := nodes[1+i%400]
		dl.RemoveBlock(c)
		_ = dl.Retrieve(nil, c)
	}
}
