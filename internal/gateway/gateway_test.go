package gateway

import (
	"net/netip"
	"testing"

	"tcsb/internal/ids"
	"tcsb/internal/simtest"
)

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("gateway with no nodes accepted")
		}
	}()
	New("gw.example", nil, nil)
}

func TestRoundRobinAcrossNodes(t *testing.T) {
	net := simtest.BuildServers(60)
	backing := net.Nodes[:3]
	gw := New("gw.example", []netip.Addr{netip.MustParseAddr("104.17.0.1")}, backing)

	if gw.Domain() != "gw.example" {
		t.Fatalf("Domain = %q", gw.Domain())
	}
	if got := gw.OverlayIDs(); len(got) != 3 {
		t.Fatalf("OverlayIDs = %d", len(got))
	}

	// Distinct content so the cache never hits; retrievals must rotate
	// through all three nodes.
	served := map[ids.PeerID]bool{}
	for i := 0; i < 6; i++ {
		c := ids.CIDFromSeed(uint64(100 + i))
		holder := net.Nodes[10+i]
		holder.AddBlock(c)
		holder.Provide(nil, c)
		ok, nd := gw.FetchHTTP(nil, c, nil)
		if !ok || nd == nil {
			t.Fatalf("fetch %d failed", i)
		}
		served[nd.ID()] = true
	}
	if len(served) != 3 {
		t.Fatalf("round robin used %d of 3 nodes", len(served))
	}
}

func TestCacheAccounting(t *testing.T) {
	net := simtest.BuildServers(40)
	gw := New("gw.example", nil, net.Nodes[:1])
	c := ids.CIDFromSeed(1)
	net.Nodes[5].AddBlock(c)
	net.Nodes[5].Provide(nil, c)

	if ok, _ := gw.FetchHTTP(nil, c, nil); !ok {
		t.Fatal("first fetch failed")
	}
	ok, nd := gw.FetchHTTP(nil, c, nil)
	if !ok || nd != nil {
		t.Fatalf("cache hit should return (true, nil), got (%v, %v)", ok, nd)
	}
	if gw.Requests != 2 || gw.CacheHits != 1 {
		t.Fatalf("Requests=%d CacheHits=%d", gw.Requests, gw.CacheHits)
	}
}

func TestFetchMissNotCached(t *testing.T) {
	net := simtest.BuildServers(40)
	gw := New("gw.example", nil, net.Nodes[:1])
	bogus := ids.CIDFromSeed(1 << 40)
	if ok, _ := gw.FetchHTTP(nil, bogus, nil); ok {
		t.Fatal("fetched non-existent content")
	}
	// A later provider makes it fetchable: the miss must not be cached
	// as a negative entry.
	net.Nodes[7].AddBlock(bogus)
	net.Nodes[7].Provide(nil, bogus)
	if ok, _ := gw.FetchHTTP(nil, bogus, nil); !ok {
		t.Fatal("content not fetchable after being provided")
	}
}

func TestFrontendIPsCopied(t *testing.T) {
	net := simtest.BuildServers(10)
	ipA := netip.MustParseAddr("104.17.0.1")
	gw := New("gw.example", []netip.Addr{ipA}, net.Nodes[:1])
	ips := gw.FrontendIPs()
	ips[0] = netip.MustParseAddr("1.1.1.1")
	if gw.FrontendIPs()[0] != ipA {
		t.Fatal("FrontendIPs exposed internal slice")
	}
}

// TestBackendLiveness pins the load balancer's health-check behaviour:
// offline backends are skipped, a fully dark cluster fails the request
// before the cache (the cache lives on the same dead machines), and a
// nil predicate (the instrument's idealised view) treats everything as
// online.
func TestBackendLiveness(t *testing.T) {
	net := simtest.BuildServers(60)
	backing := net.Nodes[:3]
	gw := New("gw.example", []netip.Addr{netip.MustParseAddr("104.17.0.1")}, backing)

	c := ids.CIDFromSeed(777)
	holder := net.Nodes[20]
	holder.AddBlock(c)
	holder.Provide(nil, c)

	// Only backing[1] is up: every fetch must be served by it.
	up := backing[1].ID()
	online := func(p ids.PeerID) bool { return p == up }
	for i := 0; i < 3; i++ {
		cc := ids.CIDFromSeed(uint64(800 + i))
		holder.AddBlock(cc)
		holder.Provide(nil, cc)
		ok, nd := gw.FetchHTTP(nil, cc, online)
		if !ok || nd == nil || nd.ID() != up {
			t.Fatalf("fetch %d: ok=%v served by %v, want the one online backend", i, ok, nd)
		}
	}

	// Warm the cache through the online backend, then take the cluster
	// dark: even cached content must fail.
	if ok, _ := gw.FetchHTTP(nil, c, online); !ok {
		t.Fatal("warm-up fetch failed")
	}
	dark := func(ids.PeerID) bool { return false }
	if ok, nd := gw.FetchHTTP(nil, c, dark); ok || nd != nil {
		t.Fatal("fully dark cluster served a request")
	}
	// The idealised (nil-predicate) view still serves from cache.
	if ok, _ := gw.FetchHTTP(nil, c, nil); !ok {
		t.Fatal("nil predicate should treat backends as online")
	}
}
