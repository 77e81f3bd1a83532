package hydra

import (
	"testing"

	"tcsb/internal/dht"
	"tcsb/internal/ids"
	"tcsb/internal/netsim"
	"tcsb/internal/node"
	"tcsb/internal/simtest"
	"tcsb/internal/trace"
)

// retaining returns a pipeline that keeps every raw event, for the tests
// that read a Hydra's log.
func retaining() *trace.Pipeline { return trace.NewPipeline(trace.Options{Retain: true}) }

// attach registers all hydra heads on the fixture network and bootstraps
// the shared table from every server.
func attach(net *simtest.Net, cfg Config) *Hydra {
	h := New(net.Network, 1<<50, cfg)
	for _, head := range h.Heads() {
		net.Network.Attach(head, h, netsim.HostConfig{Reachable: true})
	}
	var seeds []netsim.PeerInfo
	for _, nd := range net.Nodes {
		seeds = append(seeds, net.Network.Info(nd.ID()))
	}
	h.Bootstrap(seeds)
	// Servers also learn the hydra heads (they would via normal churn).
	for _, nd := range net.Nodes {
		for _, head := range h.Heads() {
			nd.LearnPeer(head, 0)
		}
	}
	return h
}

func TestHydraHeadsDistinct(t *testing.T) {
	h := New(netsim.New(), 7, Config{})
	heads := h.Heads()
	if len(heads) != DefaultHeads {
		t.Fatalf("%d heads, want %d", len(heads), DefaultHeads)
	}
	seen := map[ids.PeerID]bool{}
	for _, hd := range heads {
		if seen[hd] {
			t.Fatal("duplicate head ID")
		}
		seen[hd] = true
		if !h.IsHead(hd) {
			t.Fatal("IsHead false for own head")
		}
	}
	if h.IsHead(ids.PeerIDFromSeed(1)) {
		t.Fatal("IsHead true for foreign peer")
	}
}

func TestHydraLogsRequests(t *testing.T) {
	net := simtest.BuildServers(100)
	h := attach(net, Config{Heads: 5, Pipe: retaining()})

	head := h.Heads()[0]
	caller := net.Nodes[3]
	c := ids.CIDFromSeed(1)

	_, _ = net.Network.FindNode(nil, nil, caller.ID(), head, ids.KeyFromUint64(9))
	_, _, _ = net.Network.GetProviders(nil, nil, nil, caller.ID(), head, c)
	_ = net.Network.AddProvider(nil, caller.ID(), head, c,
		netsim.ProviderRecord{Provider: net.Network.Info(caller.ID())})

	if len(h.Log().Events()) != 3 {
		t.Fatalf("logged %d events, want 3", len(h.Log().Events()))
	}
	types := map[netsim.MsgType]bool{}
	for _, e := range h.Log().Events() {
		types[e.Type] = true
		if e.Peer != caller.ID() {
			t.Errorf("event peer = %s", e.Peer.Short())
		}
		if !e.IP.IsValid() {
			t.Error("event missing IP")
		}
	}
	if len(types) != 3 {
		t.Errorf("logged types = %v", types)
	}
}

func TestHydraServesDHT(t *testing.T) {
	net := simtest.BuildServers(100)
	h := attach(net, Config{Heads: 5})
	head := h.Heads()[0]

	// FindNode answers with contacts.
	peers, err := net.Network.FindNode(nil, nil, net.Nodes[0].ID(), head, ids.KeyFromUint64(3))
	if err != nil || len(peers) == 0 {
		t.Fatalf("hydra FindNode: %v peers, err %v", len(peers), err)
	}

	// Stored provider records are served back.
	c := ids.CIDFromSeed(2)
	rec := netsim.ProviderRecord{Provider: net.Network.Info(net.Nodes[1].ID())}
	_ = net.Network.AddProvider(nil, net.Nodes[1].ID(), head, c, rec)
	recs, closer, err := net.Network.GetProviders(nil, nil, nil, net.Nodes[2].ID(), head, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Provider.ID != net.Nodes[1].ID() {
		t.Fatalf("records = %v", recs)
	}
	if len(closer) == 0 {
		t.Fatal("no closer peers returned")
	}
}

// TestNilPipelineRecordsNothing pins the mode of the Protocol Labs
// boosters: a Hydra without a pipeline still serves AddProvider and
// GetProviders, serially and on Fanout lanes, and exposes no log and no
// statistics.
func TestNilPipelineRecordsNothing(t *testing.T) {
	net := simtest.BuildServers(100)
	h := attach(net, Config{Heads: 5})
	head := h.Heads()[0]
	put := func(env *netsim.Effects, provider *node.Node, c ids.CID) {
		rec := netsim.ProviderRecord{Provider: net.Network.Info(provider.ID())}
		if err := net.Network.AddProvider(env, provider.ID(), head, c, rec); err != nil {
			t.Error(err)
		}
	}
	get := func(env *netsim.Effects, c ids.CID) int {
		recs, _, err := net.Network.GetProviders(env, nil, nil, net.Nodes[2].ID(), head, c)
		if err != nil {
			t.Error(err)
		}
		return len(recs)
	}

	serial, laned := ids.CIDFromSeed(2), ids.CIDFromSeed(3)
	put(nil, net.Nodes[1], serial)
	if n := get(nil, serial); n != 1 {
		t.Fatalf("serial GetProviders served %d records, want 1", n)
	}
	var servedOnLane int
	net.Network.Fanout(2, 2, func(i int, env *netsim.Effects) {
		if i == 0 {
			put(env, net.Nodes[4], laned)
			return
		}
		servedOnLane = get(env, serial)
	})
	if servedOnLane != 1 {
		t.Fatalf("GetProviders on a lane served %d records, want 1", servedOnLane)
	}
	if n := get(nil, laned); n != 1 {
		t.Fatalf("a lane's AddProvider left %d records after the merge, want 1", n)
	}
	if h.Stats() != nil || h.Log() != nil {
		t.Fatalf("nil pipeline: Stats() = %v, Log() = %v; want both nil", h.Stats(), h.Log())
	}
}

func TestProactiveLookupAmplification(t *testing.T) {
	net := simtest.BuildServers(150)
	h := attach(net, Config{Heads: 5, ProactiveLookups: true})
	head := h.Heads()[0]

	// Real content provided by a node.
	c := ids.CIDFromSeed(3)
	net.Nodes[10].AddBlock(c)
	net.Nodes[10].Provide(nil, c)

	// A cache-missing request enqueues a lookup.
	_, _, _ = net.Network.GetProviders(nil, nil, nil, net.Nodes[5].ID(), head, c)
	if h.PendingLookups() != 1 {
		t.Fatalf("pending = %d, want 1", h.PendingLookups())
	}
	// Duplicate requests do not enqueue twice.
	_, _, _ = net.Network.GetProviders(nil, nil, nil, net.Nodes[6].ID(), head, c)
	if h.PendingLookups() != 1 {
		t.Fatalf("pending after dup = %d, want 1", h.PendingLookups())
	}

	before := net.Network.TotalMessages()
	if n := h.ProcessPending(nil); n != 1 {
		t.Fatalf("processed %d lookups", n)
	}
	if net.Network.TotalMessages() == before {
		t.Fatal("proactive lookup generated no traffic")
	}

	// The cache now answers directly.
	recs, _, _ := net.Network.GetProviders(nil, nil, nil, net.Nodes[7].ID(), head, c)
	if len(recs) == 0 {
		t.Fatal("cache not serving after proactive lookup")
	}
	if h.CacheSize() != 1 {
		t.Fatalf("cache size = %d", h.CacheSize())
	}
}

// TestHydraStoreBounded pins the Hydra's memory to live state: a regular
// record is served until its TTL and not after, the daily prune moves it
// from the stored to the pruned ledger, and a stale proactive-cache entry
// releases its records but keeps its key (CacheSize is hashed into every
// world snapshot digest), while a fresh entry is still served.
func TestHydraStoreBounded(t *testing.T) {
	served := func(net *simtest.Net, h *Hydra, c ids.CID) int {
		recs, _, err := net.Network.GetProviders(nil, nil, nil, net.Nodes[2].ID(), h.Heads()[0], c)
		if err != nil {
			t.Fatal(err)
		}
		return len(recs)
	}

	t.Run("records", func(t *testing.T) {
		net := simtest.BuildServers(100)
		h := attach(net, Config{Heads: 5})
		c := ids.CIDFromSeed(2)
		_ = net.Network.AddProvider(nil, net.Nodes[1].ID(), h.Heads()[0], c,
			netsim.ProviderRecord{Provider: net.Network.Info(net.Nodes[1].ID())})
		live := node.ProviderStats{Created: 1, Stored: 1}
		if got := h.ProviderStats(); got != live {
			t.Fatalf("after the put: ledger %+v, want %+v", got, live)
		}
		net.Network.Clock.Advance(providerTTL - 1)
		h.ExpireProviders()
		if served(net, h, c) != 1 {
			t.Fatal("record not served before its TTL")
		}
		if got := h.ProviderStats(); got != live {
			t.Fatalf("prune before the TTL: ledger %+v, want %+v", got, live)
		}
		net.Network.Clock.Advance(1)
		if served(net, h, c) != 0 {
			t.Fatal("record served at its TTL")
		}
		h.ExpireProviders()
		if got, want := h.ProviderStats(), (node.ProviderStats{Created: 1, Pruned: 1}); got != want {
			t.Fatalf("daily prune: ledger %+v, want %+v", got, want)
		}
	})

	t.Run("cache", func(t *testing.T) {
		net := simtest.BuildServers(150)
		h := attach(net, Config{Heads: 5, ProactiveLookups: true})
		fill := func(c ids.CID, provider *node.Node) int {
			provider.AddBlock(c)
			provider.Provide(nil, c)
			if served(net, h, c) != 0 || h.ProcessPending(nil) != 1 {
				t.Fatalf("CID %s did not miss the cache", c.String())
			}
			n := served(net, h, c)
			if n == 0 {
				t.Fatalf("proactive lookup did not fill the cache for %s", c.String())
			}
			return n
		}
		stale, fresh := ids.CIDFromSeed(3), ids.CIDFromSeed(5)
		fill(stale, net.Nodes[10])
		net.Network.Clock.Advance(cacheTTL)
		want := fill(fresh, net.Nodes[11])

		h.ExpireProviders()
		if got := h.CacheSize(); got != 2 {
			t.Fatalf("CacheSize = %d after the prune, want 2 (stale keys stay)", got)
		}
		if ce := h.cache[stale]; ce.recs != nil {
			t.Fatalf("stale cache entry still holds %d records", len(ce.recs))
		}
		if got := served(net, h, fresh); got != want {
			t.Fatalf("fresh entry serves %d records after the prune, want %d", got, want)
		}
	})
}

func TestProactiveLookupDoSVector(t *testing.T) {
	// Asking for non-existing content still triggers a full (wasted)
	// walk — the paper's DoS observation — but only once per CID.
	net := simtest.BuildServers(150)
	h := attach(net, Config{Heads: 5, ProactiveLookups: true})
	head := h.Heads()[0]
	bogus := ids.CIDFromSeed(1 << 40)

	_, _, _ = net.Network.GetProviders(nil, nil, nil, net.Nodes[5].ID(), head, bogus)
	before := net.Network.TotalMessages()
	h.ProcessPending(nil)
	if net.Network.TotalMessages() == before {
		t.Fatal("lookup for bogus CID generated no traffic")
	}
	// Second request: negative result cached, no new lookup.
	_, _, _ = net.Network.GetProviders(nil, nil, nil, net.Nodes[6].ID(), head, bogus)
	if h.PendingLookups() != 0 {
		t.Fatal("bogus CID re-enqueued despite negative cache")
	}
}

func TestProactiveDisabled(t *testing.T) {
	net := simtest.BuildServers(100)
	h := attach(net, Config{Heads: 3, ProactiveLookups: false})
	_, _, _ = net.Network.GetProviders(nil, nil, nil, net.Nodes[5].ID(), h.Heads()[0], ids.CIDFromSeed(9))
	if h.PendingLookups() != 0 {
		t.Fatal("lookup enqueued despite ProactiveLookups=false")
	}
}

func TestOwnHeadsNotLogged(t *testing.T) {
	net := simtest.BuildServers(100)
	h := attach(net, Config{Heads: 5, ProactiveLookups: true, Pipe: retaining()})
	// Trigger proactive lookup; hydra's own walk may hit its other heads,
	// which must not pollute the log.
	_, _, _ = net.Network.GetProviders(nil, nil, nil, net.Nodes[5].ID(), h.Heads()[0], ids.CIDFromSeed(12))
	logBefore := len(h.Log().Events())
	h.ProcessPending(nil)
	for _, e := range h.Log().Events()[logBefore:] {
		if h.IsHead(e.Peer) {
			t.Fatal("hydra logged its own head's traffic")
		}
	}
}

// TestPendingQueueBounded floods the proactive-lookup queue past its
// bound of 4096 distinct misses, then checks that one drain performs
// 128 lookups.
func TestPendingQueueBounded(t *testing.T) {
	net := simtest.BuildServers(50)
	h := attach(net, Config{Heads: 2, ProactiveLookups: true})
	head := h.Heads()[0]
	for i := 0; i < 4096+100; i++ {
		_, _, _ = net.Network.GetProviders(nil, nil, nil, net.Nodes[1].ID(), head, ids.CIDFromSeed(uint64(100+i)))
	}
	if got := h.PendingLookups(); got != 4096 {
		t.Fatalf("pending = %d after the flood, want the bound 4096", got)
	}
	if n := h.ProcessPending(nil); n != 128 {
		t.Fatalf("one drain performed %d lookups, want 128", n)
	}
	if got := h.PendingLookups(); got != 4096-128 {
		t.Fatalf("pending = %d after one drain, want %d", got, 4096-128)
	}
}

func TestHydraReachableViaWalk(t *testing.T) {
	// DHT walks from ordinary nodes should traverse hydra heads like any
	// other server: provide and resolve content where a head is a
	// resolver.
	net := simtest.BuildServers(100)
	_ = attach(net, Config{Heads: 20})
	c := ids.CIDFromSeed(4)
	net.Nodes[3].AddBlock(c)
	if rs, _ := net.Nodes[3].Provide(nil, c); len(rs) == 0 {
		t.Fatal("provide failed")
	}
	recs, _ := net.Nodes[80].FindProviders(nil, c, dht.FindProvidersOpts{})
	if len(recs) != 1 {
		t.Fatalf("resolution through hydra-augmented DHT found %d records", len(recs))
	}
}

func BenchmarkHydraGetProviders(b *testing.B) {
	net := simtest.BuildServers(200)
	h := attach(net, Config{Heads: 5})
	head := h.Heads()[0]
	c := ids.CIDFromSeed(1)
	caller := net.Nodes[0].ID()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = net.Network.GetProviders(nil, nil, nil, caller, head, c)
	}
}
