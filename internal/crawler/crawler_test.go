package crawler

import (
	"testing"

	"tcsb/internal/ids"
	"tcsb/internal/simtest"
)

func crawlerID() ids.PeerID { return ids.PeerIDFromSeed(1 << 60) }

// observation returns the snapshot's observation of p, or nil.
func observation(s *Snapshot, p ids.PeerID) *Observation {
	for i := range s.Peers {
		if s.Peers[i].Peer == p {
			return &s.Peers[i]
		}
	}
	return nil
}

func TestCrawlDiscoversWholeNetwork(t *testing.T) {
	net := simtest.BuildServers(300)
	snap := Crawl(net.Network, Config{ID: 1, CrawlerID: crawlerID()}, net.Seeds(2))
	if snap.Discovered() != 300 {
		t.Fatalf("discovered %d peers, want 300", snap.Discovered())
	}
	if snap.Crawlable() != 300 {
		t.Fatalf("crawlable %d peers, want 300", snap.Crawlable())
	}
	if snap.RPCs == 0 {
		t.Fatal("no RPCs recorded")
	}
}

func TestCrawlEnumeratesFullBuckets(t *testing.T) {
	net := simtest.BuildServers(200)
	snap := Crawl(net.Network, Config{ID: 1, CrawlerID: crawlerID()}, net.Seeds(1))
	// For every crawlable peer, the sweep must have enumerated its entire
	// routing table: contacts == table contents.
	for _, nd := range net.Nodes {
		o := observation(snap, nd.ID())
		if o == nil || !o.Crawlable {
			t.Fatalf("peer %s not crawled", nd.ID().Short())
		}
		want := make(map[ids.PeerID]bool)
		for _, p := range nd.RoutingTable().AppendNearest(nil, nd.ID().Key(), len(net.Nodes)) {
			want[p] = true
		}
		if len(o.Contacts) != len(want) {
			t.Fatalf("peer %s: enumerated %d contacts, table has %d",
				nd.ID().Short(), len(o.Contacts), len(want))
		}
		for _, c := range o.Contacts {
			if id := snap.Peers[c].Peer; !want[id] {
				t.Fatalf("peer %s: contact %s not in table", nd.ID().Short(), id.Short())
			}
		}
	}
}

func TestCrawlWithChurn(t *testing.T) {
	net := simtest.BuildServers(200)
	for i := 0; i < 50; i++ {
		net.Network.SetOnline(net.Nodes[i].ID(), false)
	}
	seeds := net.Seeds(60)[50:] // online seeds only
	snap := Crawl(net.Network, Config{ID: 1, CrawlerID: crawlerID()}, seeds)

	if snap.Discovered() != 200 {
		t.Fatalf("discovered %d, want 200 (ghosts included)", snap.Discovered())
	}
	if got := snap.Crawlable(); got != 150 {
		t.Fatalf("crawlable %d, want 150", got)
	}
	for i := 0; i < 50; i++ {
		o := observation(snap, net.Nodes[i].ID())
		if o == nil {
			t.Fatalf("offline peer %d not discovered via buckets", i)
		}
		if o.Crawlable {
			t.Fatalf("offline peer %d marked crawlable", i)
		}
		if o.DialError == "" {
			t.Fatalf("offline peer %d has no dial error", i)
		}
	}
	// Modeled duration: offline peers cost timeout waits.
	if snap.ModeledWaitSec <= 0 {
		t.Error("churned crawl should report timeout wait")
	}
	if snap.ModeledDurationSec <= snap.ModeledWaitSec {
		t.Error("total duration must exceed pure wait")
	}
}

// TestCrawlDurationModel pins the duration model's formula: every
// unresponsive peer pins one of 1000 dial workers for the paper's 180 s
// timeout, and every RPC costs 0.05 s on the same pool.
func TestCrawlDurationModel(t *testing.T) {
	net := simtest.BuildServers(100)
	online := Crawl(net.Network, Config{ID: 1, CrawlerID: crawlerID()}, net.Seeds(1))
	if online.ModeledWaitSec != 0 {
		t.Errorf("fully online crawl has wait %v", online.ModeledWaitSec)
	}
	// Offline half the network; the crawl discovers them as ghosts.
	for i := 0; i < 50; i++ {
		net.Network.SetOnline(net.Nodes[i].ID(), false)
	}
	snap := Crawl(net.Network, Config{ID: 2, CrawlerID: crawlerID()}, net.Seeds(60)[50:])
	unresponsive := snap.Discovered() - snap.Crawlable()
	if unresponsive == 0 {
		t.Fatal("the crawl met no unresponsive peer")
	}
	wait := float64(unresponsive) * 180 / 1000
	if snap.ModeledWaitSec != wait {
		t.Errorf("ModeledWaitSec = %v, want %d × 180 s / 1000 = %v", snap.ModeledWaitSec, unresponsive, wait)
	}
	if want := float64(snap.RPCs)*0.05/1000 + wait; snap.ModeledDurationSec != want {
		t.Errorf("ModeledDurationSec = %v, want %d × 0.05 s / 1000 + wait = %v", snap.ModeledDurationSec, snap.RPCs, want)
	}
}

func TestObservationIPs(t *testing.T) {
	net := simtest.BuildServers(50)
	snap := Crawl(net.Network, Config{ID: 1, CrawlerID: crawlerID()}, net.Seeds(1))
	for _, o := range snap.Peers {
		ips := o.IPs()
		if len(ips) != 1 {
			t.Fatalf("peer %s advertises %d IPs, want 1", o.Peer.Short(), len(ips))
		}
	}
}

func TestSeriesAggregates(t *testing.T) {
	net := simtest.BuildServers(100)
	var series Series
	for i := 0; i < 3; i++ {
		series.Add(Crawl(net.Network, Config{ID: i, CrawlerID: crawlerID()}, net.Seeds(1)))
	}
	if series.Len() != 3 {
		t.Fatalf("series length %d", series.Len())
	}
	if got := series.MeanDiscovered(); got != 100 {
		t.Errorf("MeanDiscovered = %v, want 100", got)
	}
	if got := series.MeanCrawlable(); got != 100 {
		t.Errorf("MeanCrawlable = %v, want 100", got)
	}
	if got := series.UniquePeers(); got != 100 {
		t.Errorf("UniquePeers = %v, want 100", got)
	}
	if got := series.UniqueIPs(); got != 100 {
		t.Errorf("UniqueIPs = %v, want 100", got)
	}
	if got := series.MeanIPsPerPeer(); got != 1 {
		t.Errorf("MeanIPsPerPeer = %v, want 1", got)
	}
}

func TestCrawlDeterminism(t *testing.T) {
	build := func() *Snapshot {
		net := simtest.BuildServers(150)
		return Crawl(net.Network, Config{ID: 1, CrawlerID: crawlerID()}, net.Seeds(2))
	}
	a, b := build(), build()
	if a.Discovered() != b.Discovered() || a.RPCs != b.RPCs {
		t.Fatalf("crawls differ: %d/%d peers, %d/%d RPCs",
			a.Discovered(), b.Discovered(), a.RPCs, b.RPCs)
	}
	if len(a.Peers) != len(b.Peers) {
		t.Fatal("discovery order length differs")
	}
	for i := range a.Peers {
		if a.Peers[i].Peer != b.Peers[i].Peer {
			t.Fatalf("discovery order differs at %d", i)
		}
	}
}

func BenchmarkCrawl(b *testing.B) {
	net := simtest.BuildServers(500)
	seeds := net.Seeds(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Crawl(net.Network, Config{ID: i, CrawlerID: crawlerID()}, seeds)
	}
}
