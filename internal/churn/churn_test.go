package churn

import (
	"net/netip"
	"testing"

	"tcsb/internal/crawler"
	"tcsb/internal/ids"
	"tcsb/internal/maddr"
	"tcsb/internal/netsim"
	"tcsb/internal/node"
	"tcsb/internal/simtest"
)

// series builds a crawl series over a fixture network, toggling the
// given peers offline for the middle crawl to create sessions.
func series(t *testing.T, n, crawls int, flickerEvery int) (*simtest.Net, *crawler.Series) {
	t.Helper()
	net := simtest.BuildServers(n)
	var s crawler.Series
	for i := 0; i < crawls; i++ {
		if flickerEvery > 0 {
			// Flickering peers are offline on odd crawls.
			for j := 0; j < n; j += flickerEvery {
				net.Network.SetOnline(net.Nodes[j].ID(), i%2 == 0)
			}
		}
		s.Add(crawler.Crawl(net.Network, crawler.Config{
			ID: i, CrawlerID: ids.PeerIDFromSeed(1 << 60),
		}, net.Seeds(3)))
	}
	return net, &s
}

func TestAnalyzeStablePeers(t *testing.T) {
	_, s := series(t, 80, 4, 0)
	peers := Analyze(s)
	if len(peers) != 80 {
		t.Fatalf("analyzed %d peers", len(peers))
	}
	for _, p := range peers {
		if p.Uptime() != 1.0 {
			t.Fatalf("stable peer uptime %v", p.Uptime())
		}
		if p.Sessions != 1 || p.LongestSession != 4 {
			t.Fatalf("stable peer sessions=%d longest=%d", p.Sessions, p.LongestSession)
		}
		if p.IPs != 1 {
			t.Fatalf("IPs = %d", p.IPs)
		}
	}
}

func TestAnalyzeFlickeringPeers(t *testing.T) {
	// Uncrawlable (offline) peers still appear in snapshots as bucket
	// ghosts, so "present" means "discovered", matching the paper's
	// dataset. For true absence the flickering peer joins after the
	// oracle fill, so no routing table holds it: a crawl discovers it
	// exactly when it is one of the crawl's seeds.
	net := simtest.BuildServers(40)
	flicker := ids.PeerIDFromSeed(1000)
	net.Network.Attach(flicker, node.New(flicker, net.Network, node.Config{DHTServer: true}), netsim.HostConfig{
		Reachable: true,
		Addrs:     []maddr.Addr{maddr.New(netip.AddrFrom4([4]byte{52, 1, 0, 0}), maddr.TCP, 4001)},
	})
	var s crawler.Series
	crawlOnce := func(id int, present bool) {
		seeds := net.Seeds(4)
		if present {
			seeds = append(seeds, net.Network.Info(flicker))
		}
		s.Add(crawler.Crawl(net.Network, crawler.Config{
			ID: id, CrawlerID: ids.PeerIDFromSeed(1 << 60),
		}, seeds))
	}

	crawlOnce(0, true)
	crawlOnce(1, false)
	crawlOnce(2, false)
	crawlOnce(3, true)

	var got *PeerStats
	for _, p := range Analyze(&s) {
		if p.Peer == flicker {
			q := p
			got = &q
			break
		}
	}
	if got == nil {
		t.Fatal("flickering peer missing from analysis")
	}
	if got.Appearances != 2 || got.Sessions != 2 {
		t.Fatalf("appearances=%d sessions=%d, want 2/2", got.Appearances, got.Sessions)
	}
	if got.Uptime() != 0.5 {
		t.Fatalf("uptime = %v, want 0.5", got.Uptime())
	}
	if got.LongestSession != 1 {
		t.Fatalf("longest session = %d, want 1", got.LongestSession)
	}
}

func TestSummarizeGroups(t *testing.T) {
	_, s := series(t, 60, 3, 0)
	peers := Analyze(s)
	// Group by key parity: two synthetic groups.
	group := func(p PeerStats) string {
		if p.Peer.Key()[31]%2 == 0 {
			return "even"
		}
		return "odd"
	}
	sums := Summarize(peers, group)
	if len(sums) != 2 {
		t.Fatalf("groups = %d", len(sums))
	}
	if sums[0].Group != "even" || sums[1].Group != "odd" {
		t.Fatalf("group order: %v %v", sums[0].Group, sums[1].Group)
	}
	total := sums[0].Peers + sums[1].Peers
	if total != 60 {
		t.Fatalf("group peer total = %d", total)
	}
	for _, g := range sums {
		if g.MeanUptime != 1.0 {
			t.Errorf("group %s mean uptime %v", g.Group, g.MeanUptime)
		}
		if g.MeanIPs != 1.0 {
			t.Errorf("group %s mean IPs %v", g.Group, g.MeanIPs)
		}
	}
}

func TestAnalyzeEmptySeries(t *testing.T) {
	if got := Analyze(&crawler.Series{}); len(got) != 0 {
		t.Fatalf("empty series produced %d peers", len(got))
	}
}
