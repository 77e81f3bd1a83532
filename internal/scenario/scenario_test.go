package scenario

import (
	"testing"

	"tcsb/internal/dht"
	"tcsb/internal/ids"
	"tcsb/internal/ipdb"
	"tcsb/internal/netsim"
	"tcsb/internal/provrecords"
)

// testConfig is a small, fast world for unit tests.
func testConfig() Config {
	cfg := DefaultConfig().Scaled(0.2)
	cfg.Seed = 7
	return cfg
}

func TestWorldBuildPopulation(t *testing.T) {
	cfg := testConfig()
	w := NewWorld(cfg)

	if len(w.servers) < cfg.Servers {
		t.Fatalf("built %d servers, want >= %d", len(w.servers), cfg.Servers)
	}
	if len(w.clients) != cfg.NATClients {
		t.Fatalf("built %d clients, want %d", len(w.clients), cfg.NATClients)
	}

	// Cloud fraction of ordinary servers near the configured value.
	cloud, total := 0, 0
	for _, id := range w.servers {
		a := w.Actors[id]
		if a.Platform != "" {
			continue
		}
		total++
		if a.Cloud {
			cloud++
		}
	}
	frac := float64(cloud) / float64(total)
	if frac < cfg.CloudServerFrac-0.1 || frac > cfg.CloudServerFrac+0.1 {
		t.Errorf("cloud server fraction %v, want ~%v", frac, cfg.CloudServerFrac)
	}

	// Ground-truth attributes agree with the IP database.
	for _, id := range w.order {
		a := w.Actors[id]
		info := w.DB.Lookup(a.IP)
		if a.Cloud != info.Cloud() {
			t.Fatalf("actor %s cloud flag %v but IP %s says %v",
				id.String(), a.Cloud, a.IP, info.Cloud())
		}
	}
}

func TestWorldDeterminism(t *testing.T) {
	w1 := NewWorld(testConfig())
	w2 := NewWorld(testConfig())
	if len(w1.order) != len(w2.order) {
		t.Fatal("populations differ")
	}
	for i := range w1.order {
		if w1.order[i] != w2.order[i] {
			t.Fatalf("actor order differs at %d", i)
		}
	}
	w1.StepTick()
	w2.StepTick()
	if w1.Net.TotalMessages() != w2.Net.TotalMessages() {
		t.Fatalf("traffic differs after one tick: %d vs %d",
			w1.Net.TotalMessages(), w2.Net.TotalMessages())
	}
	if w1.Monitor.Stats().Len() != w2.Monitor.Stats().Len() {
		t.Fatal("monitor streams differ")
	}
}

func TestNATClientsRelayThroughMostlyCloud(t *testing.T) {
	w := NewWorld(testConfig())
	cloudRelays, total := 0, 0
	for _, id := range w.clients {
		a := w.Actors[id]
		if a.Relay.IsZero() {
			t.Fatalf("client %s has no relay", id.String())
		}
		relayIP := w.Net.PrimaryIP(a.Relay)
		total++
		if w.DB.Lookup(relayIP).Cloud() {
			cloudRelays++
		}
	}
	frac := float64(cloudRelays) / float64(total)
	// The paper observes ~80% (inherited from the server cloud share).
	if frac < 0.65 || frac > 0.95 {
		t.Errorf("cloud relay fraction %v, want ~0.8", frac)
	}
}

func TestContentResolvable(t *testing.T) {
	w := NewWorld(testConfig())
	// Platform content must be resolvable through the DHT from anywhere,
	// by the exhaustive collector the observatory runs.
	collector := provrecords.NewCollector(w.Net, w.CollectorID(),
		func(t ids.Key) []netsim.PeerInfo { return w.SeedsNear(t, 8) })
	found := 0
	for i := 0; i < 10; i++ {
		if len(collector.CollectOne(nil, w.catalog[i].cid, 0).Records) > 0 {
			found++
		}
	}
	if found < 9 {
		t.Errorf("only %d/10 platform CIDs resolvable", found)
	}
}

func TestTrafficGeneratesLogs(t *testing.T) {
	w := NewWorld(testConfig())
	w.RunDays(1)

	if w.Monitor.Stats().Len() == 0 {
		t.Error("monitor saw no Bitswap traffic")
	}
	if w.Hydra.Stats().Len() == 0 {
		t.Error("hydra saw no DHT traffic")
	}
	mix := w.Hydra.Stats().Mix()
	if mix[0]+mix[1]+mix[2] == 0 {
		t.Error("hydra mix empty")
	}
	// The Protocol Labs boosters have nil pipelines: they serve the DHT
	// but record nothing.
	if len(w.PLHydras) == 0 {
		t.Fatal("world has no Protocol Labs boosters")
	}
	for i, h := range w.PLHydras {
		if h.Stats() != nil || h.Log() != nil {
			t.Errorf("Protocol Labs booster %d records its traffic", i)
		}
	}
}

func TestChurnCreatesGhostsAndRotation(t *testing.T) {
	w := NewWorld(testConfig())
	before := make(map[ids.PeerID]bool)
	for _, id := range w.order {
		before[id] = true
	}
	w.RunDays(2)

	offline := 0
	for _, id := range w.servers {
		if !w.Net.Online(id) {
			offline++
		}
	}
	if offline == 0 {
		t.Error("no churned servers after 2 days")
	}
	// Some identities regenerated.
	regenerated := 0
	for _, id := range w.order {
		if !before[id] {
			regenerated++
		}
	}
	if regenerated == 0 {
		t.Error("no peer IDs regenerated after 2 days of churn")
	}
}

func TestCrawlOnWorld(t *testing.T) {
	w := NewWorld(testConfig())
	w.RunDays(1)
	snap := w.Crawl(1)
	total := len(w.servers)
	if snap.Discovered() < total*7/10 {
		t.Errorf("crawl discovered %d of ~%d servers", snap.Discovered(), total)
	}
	if snap.Crawlable() == 0 || snap.Crawlable() > snap.Discovered() {
		t.Errorf("crawlable = %d, discovered = %d", snap.Crawlable(), snap.Discovered())
	}
	// NAT clients must not appear in a DHT crawl.
	discovered := make(map[ids.PeerID]bool, len(snap.Peers))
	for _, o := range snap.Peers {
		discovered[o.Peer] = true
	}
	for _, id := range w.clients {
		if discovered[id] {
			t.Fatalf("NAT client %s in crawl", id.String())
		}
	}
}

func TestAttrHelpers(t *testing.T) {
	w := NewWorld(testConfig())
	prov := w.ProviderAttr()
	country := w.CountryAttr()
	cloud := w.CloudAttr()
	for _, id := range w.servers[:20] {
		a := w.Actors[id]
		if a.Cloud && prov(a.IP) == ipdb.NonCloud {
			t.Fatalf("cloud actor's IP attributed non-cloud")
		}
		if country(a.IP) != a.Country {
			t.Fatalf("country attr %q != actor country %q", country(a.IP), a.Country)
		}
		wantCloud := "non-cloud"
		if a.Cloud {
			wantCloud = "cloud"
		}
		if cloud(a.IP) != wantCloud {
			t.Fatalf("cloud attr mismatch")
		}
	}
}

func TestPopulateDNSLink(t *testing.T) {
	w := NewWorld(testConfig())
	w.PopulateDNSLink(80)
	if got := len(w.DNS.Domains()); got != 80 {
		t.Fatalf("registered %d domains", got)
	}
}

func TestPopulateENS(t *testing.T) {
	w := NewWorld(testConfig())
	resolvers := w.PopulateENS(100)
	if len(resolvers) != 3 {
		t.Fatalf("%d resolvers", len(resolvers))
	}
	events := 0
	for _, r := range resolvers {
		events += len(r.Events())
	}
	if events < 100 {
		t.Fatalf("only %d events", events)
	}
}

func TestNearestServersExact(t *testing.T) {
	w := NewWorld(testConfig())
	target := ids.KeyFromUint64(12345)
	got := w.nearestServers(target, dht.K)
	// Brute force over the full resolver-eligible set (servers + hydra
	// heads).
	best := append([]ids.PeerID(nil), w.servers...)
	best = append(best, w.Hydra.Heads()...)
	for _, h := range w.PLHydras {
		best = append(best, h.Heads()...)
	}
	for i := 1; i < len(best); i++ {
		for j := i; j > 0 && best[j].Key().Xor(target).Cmp(best[j-1].Key().Xor(target)) < 0; j-- {
			best[j], best[j-1] = best[j-1], best[j]
		}
	}
	for i := 0; i < dht.K; i++ {
		if got[i] != best[i] {
			t.Fatalf("nearestServers[%d] = %s, want %s", i, got[i].String(), best[i].String())
		}
	}
}

func BenchmarkWorldTick(b *testing.B) {
	w := NewWorld(testConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.StepTick()
	}
}

func BenchmarkWorldBuild(b *testing.B) {
	cfg := DefaultConfig().Scaled(0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		_ = NewWorld(cfg)
	}
}
