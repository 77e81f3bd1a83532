package indexer

import (
	"testing"

	"tcsb/internal/dht"
	"tcsb/internal/ids"
	"tcsb/internal/netsim"
	"tcsb/internal/simtest"
)

func TestAnnounceResolve(t *testing.T) {
	ix := New()
	p := netsim.PeerInfo{ID: ids.PeerIDFromSeed(1)}
	cids := []ids.CID{ids.CIDFromSeed(1), ids.CIDFromSeed(2)}
	ix.Announce(p, cids)

	if ix.CIDs() != 2 || ix.Announcements != 2 {
		t.Fatalf("CIDs=%d announcements=%d", ix.CIDs(), ix.Announcements)
	}
	recs := ix.Resolve(cids[0])
	if len(recs) != 1 || recs[0].Provider.ID != p.ID {
		t.Fatalf("Resolve = %v", recs)
	}
	if ix.Resolve(ids.CIDFromSeed(99)) != nil {
		t.Fatal("unknown CID resolved")
	}
	if ix.Lookups != 2 {
		t.Fatalf("Lookups = %d", ix.Lookups)
	}
}

func TestResolveDeterministicOrder(t *testing.T) {
	ix := New()
	c := ids.CIDFromSeed(1)
	for i := 0; i < 10; i++ {
		ix.Announce(netsim.PeerInfo{ID: ids.PeerIDFromSeed(uint64(i))}, []ids.CID{c})
	}
	a, b := ix.Resolve(c), ix.Resolve(c)
	for i := range a {
		if a[i].Provider.ID != b[i].Provider.ID {
			t.Fatal("Resolve order not deterministic")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].Provider.ID.Key().Cmp(a[i-1].Provider.ID.Key()) <= 0 {
			t.Fatal("Resolve not key-sorted")
		}
	}
}

func TestCensorshipBlock(t *testing.T) {
	ix := New()
	c := ids.CIDFromSeed(1)
	ix.Announce(netsim.PeerInfo{ID: ids.PeerIDFromSeed(1)}, []ids.CID{c})
	ix.Block(c)
	if !ix.Blocked(c) {
		t.Fatal("Block did not register")
	}
	if ix.Resolve(c) != nil {
		t.Fatal("blocked CID resolved")
	}
	if ix.BlockedHits != 1 {
		t.Fatalf("BlockedHits = %d", ix.BlockedHits)
	}
	ix.Unblock(c)
	if len(ix.Resolve(c)) != 1 {
		t.Fatal("unblocked CID not resolvable")
	}
}

func TestFallbackKeepsContentResolvable(t *testing.T) {
	// The paper's §9 point: with the DHT kept as fallback, an indexer
	// block does not make content unreachable.
	net := simtest.BuildServers(200)
	c := ids.CIDFromSeed(7)
	provider := net.Nodes[3]
	provider.AddBlock(c)
	provider.Provide(nil, c)

	ix := New()
	ix.Announce(net.Network.Info(provider.ID()), []ids.CID{c})

	w := dht.NewWalker(net.Network, ids.PeerIDFromSeed(1<<50))
	seeds := net.Seeds(4)

	// Indexer path: one lookup, no DHT traffic.
	before := net.Network.TotalMessages()
	res := ResolveWithFallback(ix, w, seeds, c)
	if !res.ViaIndexer || len(res.Records) != 1 {
		t.Fatalf("indexer path = %+v", res)
	}
	if net.Network.TotalMessages() != before {
		t.Fatal("indexer path generated DHT traffic")
	}

	// Operator blocks the CID: the DHT fallback still finds it.
	ix.Block(c)
	res = ResolveWithFallback(ix, w, seeds, c)
	if res.ViaIndexer {
		t.Fatal("blocked CID answered via indexer")
	}
	if len(res.Records) != 1 || res.Records[0].Provider.ID != provider.ID() {
		t.Fatalf("fallback records = %v", res.Records)
	}
	if res.Walk.Queried == 0 {
		t.Fatal("fallback did not walk the DHT")
	}
}

func TestFallbackSpeedAsymmetry(t *testing.T) {
	// "Cloud-based resolution is always faster than decentralised
	// lookup": the indexer answers in 0 overlay RPCs, the DHT needs a
	// multi-hop walk.
	net := simtest.BuildServers(300)
	c := ids.CIDFromSeed(9)
	net.Nodes[5].AddBlock(c)
	net.Nodes[5].Provide(nil, c)
	ix := New()
	ix.Announce(net.Network.Info(net.Nodes[5].ID()), []ids.CID{c})
	w := dht.NewWalker(net.Network, ids.PeerIDFromSeed(1<<50))

	recs, stats := w.FindProviders(nil, net.Seeds(4), c, dht.FindProvidersOpts{})
	if len(recs) == 0 {
		t.Fatal("DHT resolution failed")
	}
	if stats.Queried < 2 {
		t.Fatalf("DHT walk queried only %d peers; asymmetry test meaningless", stats.Queried)
	}
	// Indexer: exactly one centralized lookup.
	lookupsBefore := ix.Lookups
	if got := ix.Resolve(c); len(got) == 0 {
		t.Fatal("indexer resolution failed")
	}
	if ix.Lookups != lookupsBefore+1 {
		t.Fatal("indexer lookup accounting wrong")
	}
}
