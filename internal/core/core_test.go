package core_test

import (
	"math"
	"testing"

	"tcsb/internal/core"
	"tcsb/internal/counting"
	"tcsb/internal/ids"
	"tcsb/internal/provrecords"
	"tcsb/internal/scenario"
	"tcsb/internal/simtest/campaign"
	"tcsb/internal/trace"
)

// The observatory fixture is expensive (a full multi-day campaign), so
// all shape tests share the simtest process-wide instance — built with
// a multi-worker pool so these tests also exercise the concurrent
// campaign engine (notably under -race).
func obs(t *testing.T) *core.Observatory {
	t.Helper()
	return campaign.MediumObservatory(11, 4)
}

// cloudShare mirrors the unexported helper the experiments use: the
// share of entities classified cloud (including the BOTH bucket).
func cloudShare(m map[string]float64) float64 {
	var cloud, total float64
	for k, v := range m {
		total += v
		if k == "cloud" || k == counting.BothLabel {
			cloud += v
		}
	}
	if total == 0 {
		return 0
	}
	return cloud / total
}

func TestTable1MatchesPaperExactly(t *testing.T) {
	r := core.Table1()
	if r.GIP["DE"] != 2 || r.GIP["US"] != 2 {
		t.Fatalf("G-IP = %v, want DE=2 US=2", r.GIP)
	}
	if r.AN["DE"] != 0.5 || r.AN["US"] != 1 {
		t.Fatalf("A-N = %v, want DE=0.5 US=1", r.AN)
	}
}

func TestSection3DatasetShape(t *testing.T) {
	o := obs(t)
	s := o.Section3()
	if s.Crawls != 8 {
		t.Fatalf("crawls = %d", s.Crawls)
	}
	if s.MeanCrawlable > s.MeanDiscovered {
		t.Error("crawlable exceeds discovered")
	}
	// Churn: more unique peers across crawls than per crawl; more unique
	// IPs than peers (rotation); >1 IP per peer on average.
	if float64(s.UniquePeers) <= s.MeanDiscovered {
		t.Errorf("unique peers %d <= mean discovered %.0f", s.UniquePeers, s.MeanDiscovered)
	}
	if s.UniqueIPs <= s.UniquePeers {
		t.Errorf("unique IPs %d <= unique peers %d (IP rotation missing)", s.UniqueIPs, s.UniquePeers)
	}
	if s.MeanIPsPerPeer <= 1.0 {
		t.Errorf("mean IPs per peer = %v", s.MeanIPsPerPeer)
	}
	if s.MeanModeledDur <= 0 {
		t.Error("no modeled crawl duration")
	}
}

func TestFig3CloudStatusShape(t *testing.T) {
	o := obs(t)
	r := o.Fig3CloudStatus()
	an := cloudShare(r.ANShares)
	gip := cloudShare(r.GIPShares)
	// Paper: A-N ≈ 79.6% cloud; G-IP substantially lower (39.9%).
	if an < 0.70 || an > 0.90 {
		t.Errorf("A-N cloud share = %v, want ~0.8", an)
	}
	if gip >= an-0.05 {
		t.Errorf("G-IP cloud share (%v) should be clearly below A-N (%v)", gip, an)
	}
}

func TestFig4MethodologyDivergence(t *testing.T) {
	o := obs(t)
	r := o.Fig4Cumulative()
	if len(r.AN) != len(r.GIP) || len(r.AN) < 4 {
		t.Fatalf("curve lengths: %d, %d", len(r.AN), len(r.GIP))
	}
	// A-N stays roughly constant; G-IP declines as rotating IPs pile up.
	anDrift := math.Abs(r.AN[len(r.AN)-1].Value - r.AN[0].Value)
	gipDrop := r.GIP[0].Value - r.GIP[len(r.GIP)-1].Value
	if anDrift > 0.05 {
		t.Errorf("A-N drifted by %v; should be stable", anDrift)
	}
	if gipDrop < 0.05 {
		t.Errorf("G-IP dropped only %v; should decline markedly", gipDrop)
	}
}

func TestFig5ProviderShape(t *testing.T) {
	o := obs(t)
	r := o.Fig5CloudProviders()
	// choopa is the top provider under A-N, and its share shrinks under
	// G-IP (the paper: 29.3% -> 13.8%).
	if r.AN["choopa"] < 0.15 {
		t.Errorf("choopa A-N share = %v, want leading (~0.25+)", r.AN["choopa"])
	}
	if r.GIP["choopa"] >= r.AN["choopa"] {
		t.Errorf("choopa G-IP share (%v) should be below A-N (%v)",
			r.GIP["choopa"], r.AN["choopa"])
	}
	top3 := core.TopNShare(r.AN, 3, "non-cloud", "BOTH")
	if top3 < 0.35 || top3 > 0.70 {
		t.Errorf("top-3 provider share = %v, want ~0.52", top3)
	}
}

func TestFig6GeoShape(t *testing.T) {
	o := obs(t)
	r := o.Fig6Geolocation()
	// US leads, DE second (the paper: 47.4% and 13.7%).
	usAN := r.AN["US"]
	if usAN < 0.30 {
		t.Errorf("US A-N share = %v, want ~0.47", usAN)
	}
	for country, share := range r.AN {
		if country != "US" && share > usAN {
			t.Errorf("%s (%v) outranks US (%v)", country, share, usAN)
		}
	}
	if r.AN["DE"] < 0.05 {
		t.Errorf("DE A-N share = %v, want ~0.14", r.AN["DE"])
	}
}

func TestFig7DegreeShape(t *testing.T) {
	o := obs(t)
	r := o.Fig7Degrees()
	// Out-degrees in a tight band; in-degree has a heavy tail.
	if r.OutP10 <= 0 || r.OutP90 <= 0 {
		t.Fatal("missing out-degree percentiles")
	}
	if r.OutP90 > 3*r.OutP10 {
		t.Errorf("out-degree band [%v, %v] too wide", r.OutP10, r.OutP90)
	}
	if r.MaxIn < 2*r.InP90 {
		t.Errorf("in-degree max %v should far exceed p90 %v (hubs expected)", r.MaxIn, r.InP90)
	}
}

func TestFig8ResilienceShape(t *testing.T) {
	o := obs(t)
	r := o.Fig8Resilience()
	// Random removal: >= 95% largest CC even at 90% removed.
	last := r.RandomMean[len(r.RandomMean)-1]
	if last < 0.90 {
		t.Errorf("random removal at 90%%: largest CC %v, want >= 0.9", last)
	}
	// Targeted is at least as damaging everywhere.
	for i := range r.Fractions {
		if r.Targeted[i] > r.RandomMean[i]+0.05 {
			t.Errorf("at %v removed: targeted %v beats random %v",
				r.Fractions[i], r.Targeted[i], r.RandomMean[i])
		}
	}
	// Targeted removal eventually shatters the graph.
	if r.FullPartitionAt >= 0.98 {
		t.Errorf("targeted removal never partitioned the graph (at %v)", r.FullPartitionAt)
	}
}

func TestSection5MixShape(t *testing.T) {
	o := obs(t)
	mix := o.Section5Mix()
	// Paper: 57% download, 40% advertise, 3% other.
	if mix[trace.Download] < 0.3 {
		t.Errorf("download share = %v, want dominant (~0.57)", mix[trace.Download])
	}
	if mix[trace.Advertise] < 0.2 {
		t.Errorf("advertise share = %v, want substantial (~0.40)", mix[trace.Advertise])
	}
	if mix[trace.Other] > 0.15 {
		t.Errorf("other share = %v, want small (~0.03)", mix[trace.Other])
	}
}

func TestFig9FrequencyShape(t *testing.T) {
	o := obs(t)
	r := o.Fig9Frequency()
	// Most identifiers are short-lived (1-3 days).
	if s := core.ShortLivedShare(r.CIDDays, 3); s < 0.5 {
		t.Errorf("short-lived CID share = %v", s)
	}
	if s := core.ShortLivedShare(r.IPDays, 3); s < 0.5 {
		t.Errorf("short-lived IP share = %v", s)
	}
	if s := core.ShortLivedShare(r.PeerDays, 3); s < 0.5 {
		t.Errorf("short-lived peer share = %v", s)
	}
}

func TestFig10PeerParetoShape(t *testing.T) {
	o := obs(t)
	dht, bs := o.Fig10PeerPareto()
	// Strong centralization on both protocols (paper: top 5% ≈ 97%).
	if dht.Top5Share < 0.4 {
		t.Errorf("DHT top-5%% share = %v", dht.Top5Share)
	}
	if bs.Top5Share < 0.3 {
		t.Errorf("Bitswap top-5%% share = %v", bs.Top5Share)
	}
	// Gateways: small share of DHT traffic, much larger share of
	// Bitswap (paper: ≈1% vs ≈18%).
	if dht.GroupTraffic["gateway"] >= bs.GroupTraffic["gateway"] {
		t.Errorf("gateway DHT share (%v) should be below Bitswap share (%v)",
			dht.GroupTraffic["gateway"], bs.GroupTraffic["gateway"])
	}
}

func TestFig11IPParetoShape(t *testing.T) {
	o := obs(t)
	dht, bs := o.Fig11IPPareto()
	// Cloud IPs dominate DHT traffic despite being a minority of IPs.
	if dht.GroupTraffic["cloud"] < 0.5 {
		t.Errorf("cloud DHT traffic share = %v, want dominant (~0.85)", dht.GroupTraffic["cloud"])
	}
	if dht.GroupMembers["cloud"] > 0.5 {
		t.Errorf("cloud IP member share = %v, want minority", dht.GroupMembers["cloud"])
	}
	// Bitswap is much less cloud-dominated than the DHT (paper: 42% vs 85%).
	if bs.GroupTraffic["cloud"] >= dht.GroupTraffic["cloud"] {
		t.Errorf("bitswap cloud share (%v) should be below DHT cloud share (%v)",
			bs.GroupTraffic["cloud"], dht.GroupTraffic["cloud"])
	}
}

func TestFig12CloudPerTrafficShape(t *testing.T) {
	o := obs(t)
	r := o.Fig12CloudPerTrafficType()
	// The headline asymmetry: cloud share by traffic far exceeds cloud
	// share by IP count (the paper: ~93% vs ~35%).
	if r.CloudByTraffic <= r.CloudByCount+0.1 {
		t.Errorf("cloud by traffic (%v) should far exceed cloud by count (%v)",
			r.CloudByTraffic, r.CloudByCount)
	}
	// AWS leads download traffic by volume (the paper: 68%).
	dl := r.TrafficShares[trace.Download]
	if dl["amazon_aws"] < 0.2 {
		t.Errorf("AWS download traffic share = %v, want leading", dl["amazon_aws"])
	}
}

func TestFig13PlatformShape(t *testing.T) {
	o := obs(t)
	r := o.Fig13Platforms()
	// Hydra visible in downloads but absent from advertisements.
	if r.DHTDownload["hydra"] < 0.1 {
		t.Errorf("hydra download share = %v, want large (~0.5)", r.DHTDownload["hydra"])
	}
	if r.DHTAdvertise["hydra"] > 0.02 {
		t.Errorf("hydra advertise share = %v, want ~0", r.DHTAdvertise["hydra"])
	}
	// Storage platforms dominate advertise traffic.
	storage := r.DHTAdvertise[scenario.PlatformWeb3Storage] + r.DHTAdvertise[scenario.PlatformNFTStorage]
	if storage < 0.2 {
		t.Errorf("web3+nft advertise share = %v, want dominant", storage)
	}
	// ipfs-bank leads Bitswap platform attribution.
	if r.Bitswap[scenario.PlatformIPFSBank] < 0.05 {
		t.Errorf("ipfs-bank bitswap share = %v", r.Bitswap[scenario.PlatformIPFSBank])
	}
}

func TestFig14ProviderClassShape(t *testing.T) {
	o := obs(t)
	shares, relayCloud := o.Fig14ProviderClass()
	// All three major classes present in paper-like proportions.
	if shares[provrecords.NATed] < 0.15 {
		t.Errorf("NAT-ed share = %v, want ~0.36", shares[provrecords.NATed])
	}
	if shares[provrecords.CloudBased] < 0.2 {
		t.Errorf("cloud share = %v, want ~0.45", shares[provrecords.CloudBased])
	}
	if shares[provrecords.NonCloudBased] < 0.05 {
		t.Errorf("non-cloud share = %v, want ~0.18", shares[provrecords.NonCloudBased])
	}
	// ~80% of NAT-ed providers relay through cloud nodes.
	if relayCloud < 0.6 {
		t.Errorf("cloud relay share = %v, want ~0.8", relayCloud)
	}
}

func TestFig15PopularityShape(t *testing.T) {
	o := obs(t)
	pareto, classShares := o.Fig15ProviderPopularity()
	if len(pareto) == 0 {
		t.Fatal("empty popularity pareto")
	}
	// A small head of providers covers a large share of records.
	var top10 float64
	for _, p := range pareto {
		if p.TopFraction >= 0.10 {
			top10 = p.WeightFraction
			break
		}
	}
	if top10 < 0.3 {
		t.Errorf("top-10%% of providers cover %v of records, want concentrated", top10)
	}
	// Cloud providers dominate appearances; NAT-ed appear far less.
	if classShares[provrecords.CloudBased] <= classShares[provrecords.NATed] {
		t.Errorf("cloud appearances (%v) should exceed NAT-ed (%v)",
			classShares[provrecords.CloudBased], classShares[provrecords.NATed])
	}
}

func TestFig16ContentCloudShape(t *testing.T) {
	o := obs(t)
	r := o.Fig16ContentCloud()
	if r.CIDs < 50 {
		t.Fatalf("too few CIDs with providers: %d", r.CIDs)
	}
	// Majority of content has at least one cloud provider; a sizable
	// share also has a non-cloud provider (the paper: 95% / 77%).
	if r.AtLeastOneCloud < 0.6 {
		t.Errorf("at-least-one-cloud = %v, want ~0.95", r.AtLeastOneCloud)
	}
	if r.AtLeastOneNonCloud < 0.2 {
		t.Errorf("at-least-one-non-cloud = %v, want ~0.77", r.AtLeastOneNonCloud)
	}
	if r.OnlyCloud+r.AtLeastOneNonCloud > 1.0001 || r.OnlyCloud+r.AtLeastOneNonCloud < 0.9999 {
		t.Errorf("only-cloud (%v) and >=1-non-cloud (%v) must partition", r.OnlyCloud, r.AtLeastOneNonCloud)
	}
}

func TestFig17DNSLinkShape(t *testing.T) {
	o := obs(t)
	r := o.Fig17DNSLink()
	if r.Domains < 100 {
		t.Fatalf("scan found %d domains", r.Domains)
	}
	// Cloudflare dominates fronting IPs; a notable non-cloud share
	// exists (the paper: ~50% and ~20%).
	if r.ByProvider["cloudflare_inc"] < 0.3 {
		t.Errorf("cloudflare share = %v, want ~0.5", r.ByProvider["cloudflare_inc"])
	}
	if r.ByProvider["non-cloud"] < 0.1 {
		t.Errorf("non-cloud share = %v, want ~0.2", r.ByProvider["non-cloud"])
	}
	// Most DNSLink domains do not point at listed public gateways.
	if r.ByGateway["non-gateway"] < 0.5 {
		t.Errorf("non-gateway share = %v, want plurality", r.ByGateway["non-gateway"])
	}
}

func TestFig18GatewayProvidersShape(t *testing.T) {
	o := obs(t)
	r := o.Fig18GatewayProviders()
	if len(r.Frontend) == 0 || len(r.Overlay) == 0 {
		t.Fatal("missing gateway side distributions")
	}
	// Cloudflare is the leading frontend provider.
	for p, share := range r.Frontend {
		if p != "cloudflare_inc" && share > r.Frontend["cloudflare_inc"] {
			t.Errorf("frontend provider %s (%v) outranks cloudflare (%v)",
				p, share, r.Frontend["cloudflare_inc"])
		}
	}
}

func TestFig19GatewayGeoShape(t *testing.T) {
	o := obs(t)
	r := o.Fig19GatewayGeo()
	usde := r.Overlay["US"] + r.Overlay["DE"]
	if usde < 0.25 {
		t.Errorf("US+DE overlay share = %v, want substantial", usde)
	}
}

func TestFig20ENSShape(t *testing.T) {
	o := obs(t)
	r := o.Fig20ENS()
	if r.Records < 100 {
		t.Fatalf("extracted %d ENS records", r.Records)
	}
	if r.ResolvedCID == 0 {
		t.Fatal("no ENS CIDs resolved to providers")
	}
	// Heavily cloud-hosted (the paper: 82%).
	if r.CloudShare < 0.6 {
		t.Errorf("ENS cloud share = %v, want ~0.82", r.CloudShare)
	}
	// choopa leads among providers, as in the paper.
	if r.ByProvider["choopa"] < r.ByProvider["non-cloud"]/3 {
		t.Errorf("choopa share = %v suspiciously low", r.ByProvider["choopa"])
	}
}

func TestGatewayCensusFindsRealNodes(t *testing.T) {
	o := obs(t)
	domains := make(map[string]bool)
	for _, gw := range o.World.Gateways {
		domains[gw.Domain()] = true
	}
	truth := make(map[ids.PeerID]bool) // every gateway's backing overlay nodes
	for id, a := range o.World.Actors {
		if domains[a.Platform] {
			truth[id] = true
		}
	}
	if len(o.GatewaySet) == 0 {
		t.Fatal("census discovered nothing")
	}
	for id := range o.GatewaySet {
		if !truth[id] {
			t.Errorf("census discovered non-gateway peer %s", id.Short())
		}
	}
}

func TestObservatoryDeterminism(t *testing.T) {
	cfg := scenario.DefaultConfig().Scaled(0.08)
	cfg.Seed = 5
	rc := core.RunConfig{Days: 1, CrawlsPerDay: 1, DailyCIDSample: 40,
		GatewayProbeRounds: 4, DNSLinkDomains: 50, ENSNames: 40}
	a := core.Observe(scenario.NewWorld(cfg), rc)
	b := core.Observe(scenario.NewWorld(cfg), rc)
	if a.HydraStats().Len() != b.HydraStats().Len() {
		t.Fatalf("hydra streams differ: %d vs %d", a.HydraStats().Len(), b.HydraStats().Len())
	}
	if len(a.Records.PerCID) != len(b.Records.PerCID) {
		t.Fatalf("record collections differ: %d vs %d", len(a.Records.PerCID), len(b.Records.PerCID))
	}
	if a.Crawls.UniquePeers() != b.Crawls.UniquePeers() {
		t.Fatal("crawl series differ")
	}
}

func TestSectionChurnShape(t *testing.T) {
	o := obs(t)
	r := o.SectionChurn()
	byGroup := map[string]int{}
	var cloudUp, nonCloudUp float64
	var cloudIPs, nonCloudIPs float64
	for _, g := range r.Groups {
		byGroup[g.Group] = g.Peers
		switch g.Group {
		case "cloud":
			cloudUp, cloudIPs = g.MeanUptime, g.MeanIPs
		case "non-cloud":
			nonCloudUp, nonCloudIPs = g.MeanUptime, g.MeanIPs
		}
	}
	if byGroup["cloud"] == 0 || byGroup["non-cloud"] == 0 {
		t.Fatalf("missing groups: %v", byGroup)
	}
	// The paper's §4 evidence: non-cloud nodes are shorter-lived and
	// rotate addresses more.
	if nonCloudUp >= cloudUp {
		t.Errorf("non-cloud uptime (%v) should be below cloud uptime (%v)", nonCloudUp, cloudUp)
	}
	if nonCloudIPs <= cloudIPs {
		t.Errorf("non-cloud IPs/peer (%v) should exceed cloud (%v)", nonCloudIPs, cloudIPs)
	}
}
