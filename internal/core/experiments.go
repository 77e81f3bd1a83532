package core

import (
	"math/rand"
	"net/netip"
	"sort"

	"tcsb/internal/churn"
	"tcsb/internal/counting"
	"tcsb/internal/crawler"
	"tcsb/internal/dnslink"
	"tcsb/internal/graph"
	"tcsb/internal/ids"
	"tcsb/internal/ipdb"
	"tcsb/internal/provrecords"
	"tcsb/internal/scenario"
	"tcsb/internal/stats"
	"tcsb/internal/trace"
)

// --- Table 1 / counting methodology ---

// Table1Result is the worked example of the paper's Table 1.
type Table1Result struct {
	GIP map[string]float64 // expect DE=2, US=2
	AN  map[string]float64 // expect DE=0.5, US=1
}

// Table1 reproduces the counting-methodology example exactly.
func Table1() Table1Result {
	p1, p2 := ids.PeerIDFromSeed(1), ids.PeerIDFromSeed(2)
	a1 := netip.MustParseAddr("91.0.0.1")
	a2 := netip.MustParseAddr("91.0.0.2")
	a3 := netip.MustParseAddr("73.0.0.3")
	a4 := netip.MustParseAddr("73.0.0.4")
	rows := []counting.Row{
		{Crawl: 1, Peer: p1, IP: a1},
		{Crawl: 1, Peer: p1, IP: a2},
		{Crawl: 1, Peer: p2, IP: a3},
		{Crawl: 2, Peer: p2, IP: a2},
		{Crawl: 2, Peer: p2, IP: a3},
		{Crawl: 2, Peer: p2, IP: a4},
	}
	geo := ipdb.Default()
	attr := func(ip netip.Addr) string { return geo.Lookup(ip).Country }
	d := counting.New(rows)
	return Table1Result{GIP: d.GIP(attr), AN: d.AN(attr, counting.MajorityVote)}
}

// --- Section 3 numbers ---

// Section3Stats reports the crawl-dataset shape (the 25,771.6 /
// 17,991.4 / 53,898 / 86,064 / 1.82 numbers, at simulation scale).
type Section3Stats struct {
	Crawls         int
	MeanDiscovered float64
	MeanCrawlable  float64
	UniquePeers    int
	UniqueIPs      int
	MeanIPsPerPeer float64
	MeanModeledDur float64 // seconds
}

// Section3 computes the dataset-shape statistics.
func (o *Observatory) Section3() Section3Stats {
	s := Section3Stats{
		Crawls:         o.Crawls.Len(),
		MeanDiscovered: o.Crawls.MeanDiscovered(),
		MeanCrawlable:  o.Crawls.MeanCrawlable(),
		UniquePeers:    o.Crawls.UniquePeers(),
		UniqueIPs:      o.Crawls.UniqueIPs(),
		MeanIPsPerPeer: o.Crawls.MeanIPsPerPeer(),
	}
	for _, sn := range o.Crawls.Snapshots {
		s.MeanModeledDur += sn.ModeledDurationSec
	}
	if o.Crawls.Len() > 0 {
		s.MeanModeledDur /= float64(o.Crawls.Len())
	}
	return s
}

// --- Fig. 3: cloud status, both methodologies ---

// Fig3Result compares cloud attribution under both methodologies.
type Fig3Result struct {
	// AN maps {provider-or-special → average node count}; reduced to
	// cloud/non-cloud/BOTH shares in ANShares.
	ANShares  map[string]float64
	GIPShares map[string]float64
}

// Fig3CloudStatus computes the headline comparison: ~80% cloud under
// A-N vs ~40% under G-IP.
func (o *Observatory) Fig3CloudStatus() Fig3Result {
	d := o.Dataset()
	cloudAttr := o.World.CloudAttr()

	an := d.AN(cloudAttr, counting.CloudBothClassifier(ipdb.NonCloud))
	gip := d.GIP(cloudAttr)
	return Fig3Result{ANShares: normalize(an), GIPShares: normalize(gip)}
}

// normalize scales m's values to shares of their total.
func normalize(m map[string]float64) map[string]float64 {
	var total float64
	for _, k := range sortedKeys(m) {
		total += m[k]
	}
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if total > 0 {
			out[k] = v / total
		}
	}
	return out
}

// --- Fig. 4: ratio vs cumulative crawls ---

// Fig4Result holds the cloud:non-cloud ratio curves.
type Fig4Result struct {
	AN  []counting.CumulativePoint
	GIP []counting.CumulativePoint
}

// Fig4Cumulative computes the cloud share as a function of aggregated
// crawls under both methodologies: stable under A-N, drifting down under
// G-IP as rotating residential IPs accumulate.
func (o *Observatory) Fig4Cumulative() Fig4Result {
	d := o.Dataset()
	cloudAttr := o.World.CloudAttr()
	anRatio := func(ds *counting.Dataset) float64 {
		return cloudShare(ds.AN(cloudAttr, counting.CloudBothClassifier(ipdb.NonCloud)))
	}
	gipRatio := func(ds *counting.Dataset) float64 {
		return cloudShare(ds.GIP(cloudAttr))
	}
	return Fig4Result{
		AN:  d.CumulativeRatio(anRatio),
		GIP: d.CumulativeRatio(gipRatio),
	}
}

// cloudShare returns the share of m's total held by the cloud and
// cloud+non-cloud labels.
func cloudShare(m map[string]float64) float64 {
	var cloud, total float64
	for _, k := range sortedKeys(m) {
		v := m[k]
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

// sortedKeys returns m's keys in increasing order. Sums over a map run
// in this order: map iteration order is random and float addition is not
// associative, so a sum in iteration order can differ in its last bit
// from run to run (A-N counts are averages over the crawls).
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// --- Fig. 5 / Fig. 6: providers and countries ---

// DistResult holds a categorical distribution under both methodologies.
type DistResult struct {
	AN  map[string]float64
	GIP map[string]float64
}

// Fig5CloudProviders attributes nodes to cloud providers under both
// methodologies (A-N: choopa ≈29%, top-3 ≈52%; G-IP shrinks choopa).
func (o *Observatory) Fig5CloudProviders() DistResult {
	d := o.Dataset()
	attr := o.World.ProviderAttr()
	return DistResult{
		AN:  normalize(d.AN(attr, counting.CloudBothClassifier(ipdb.NonCloud))),
		GIP: normalize(d.GIP(attr)),
	}
}

// Fig6Geolocation attributes nodes to countries under both methodologies.
func (o *Observatory) Fig6Geolocation() DistResult {
	d := o.Dataset()
	attr := o.World.CountryAttr()
	return DistResult{
		AN:  normalize(d.AN(attr, counting.MajorityVote)),
		GIP: normalize(d.GIP(attr)),
	}
}

// TopNShare sums the n largest shares of a distribution.
func TopNShare(m map[string]float64, n int, skip ...string) float64 {
	skipSet := map[string]bool{}
	for _, s := range skip {
		skipSet[s] = true
	}
	items := stats.MapToItems(m)
	var sum float64
	taken := 0
	for _, it := range items {
		if skipSet[it.Label] {
			continue
		}
		sum += it.Count
		taken++
		if taken == n {
			break
		}
	}
	return sum
}

// --- Fig. 7: degree distribution ---

// Fig7Result holds degree percentiles of the latest crawl graph.
type Fig7Result struct {
	// OutP10/OutP90 bound the out-degree band; InP90 is the paper's
	// "90th percentile below ≈500".
	OutP10, OutP90, InP90 float64
	MaxIn                 float64
}

// Fig7Degrees analyses the degree distribution of the last snapshot.
func (o *Observatory) Fig7Degrees() Fig7Result {
	g := o.LastGraph()
	outs := g.OutDegrees()
	ins := g.InDegrees()
	var res Fig7Result
	if len(outs) > 0 {
		res.OutP10 = stats.Percentile(outs, 10)
		res.OutP90 = stats.Percentile(outs, 90)
	}
	if len(ins) > 0 {
		res.InP90 = stats.Percentile(ins, 90)
		res.MaxIn = stats.Percentile(ins, 100)
	}
	return res
}

func (o *Observatory) lastSnapshot() *crawler.Snapshot {
	return o.Crawls.Snapshots[len(o.Crawls.Snapshots)-1]
}

// --- Fig. 8: resilience ---

// Fig8Result samples largest-CC fractions at removal fractions.
type Fig8Result struct {
	Fractions []float64
	// RandomMean / RandomCI95 are over the repeated random orders.
	RandomMean []float64
	RandomCI95 []float64
	Targeted   []float64
	// FullPartitionAt is the removal fraction at which targeted removal
	// first pushes the largest CC below 2 nodes (≈0.6 in the paper).
	FullPartitionAt float64
}

// Fig8Resilience runs the node-removal experiment: 10 random repetitions
// with a 95% CI, plus degree-targeted removal.
func (o *Observatory) Fig8Resilience() Fig8Result {
	g := o.LastGraph()
	adj := o.UndirectedAdj()
	fractions := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	res := Fig8Result{Fractions: fractions}

	rng := rand.New(rand.NewSource(o.World.Cfg.Seed ^ 0xf18))
	samples := make([][]float64, len(fractions))
	for rep := 0; rep < 10; rep++ {
		curve := graph.RemovalCurve(adj, graph.RandomOrder(g.N(), rng))
		vals := graph.SampleCurve(curve, fractions)
		for i, v := range vals {
			samples[i] = append(samples[i], v)
		}
	}
	for i := range fractions {
		mean, hw := stats.MeanCI95(samples[i])
		res.RandomMean = append(res.RandomMean, mean)
		res.RandomCI95 = append(res.RandomCI95, hw)
	}

	tCurve := graph.RemovalCurve(adj, graph.TargetedOrder(adj))
	res.Targeted = graph.SampleCurve(tCurve, fractions)
	res.FullPartitionAt = 1.0
	n := len(tCurve)
	for k, v := range tCurve {
		remaining := n - k
		if float64(remaining)*v <= 2 {
			res.FullPartitionAt = float64(k) / float64(n)
			break
		}
	}
	return res
}

// --- Fig. 9: identifier frequency ---

// Fig9Result holds the days-seen histograms of the Hydra log.
type Fig9Result struct {
	CIDDays  map[int]int
	IPDays   map[int]int
	PeerDays map[int]int
}

// Fig9Frequency computes request-frequency histograms per identifier,
// folded from the streaming statistics (identical to the batch
// days-seen histogram over the raw log; see internal/simtest/invariants).
func (o *Observatory) Fig9Frequency() Fig9Result {
	st := o.HydraStats()
	return Fig9Result{
		CIDDays:  st.DaysSeenByCID(),
		IPDays:   st.DaysSeenByIP(),
		PeerDays: st.DaysSeenByPeer(),
	}
}

// ShortLivedShare returns the fraction of identifiers seen on at most d
// days.
func ShortLivedShare(hist map[int]int, d int) float64 {
	var short, total float64
	for days, n := range hist {
		total += float64(n)
		if days <= d {
			short += float64(n)
		}
	}
	if total == 0 {
		return 0
	}
	return short / total
}

// --- Fig. 10 / Fig. 11: traffic Pareto ---

// ParetoResult describes traffic centralization for one protocol.
type ParetoResult struct {
	// Top5Share is the traffic share of the most active 5% of entities.
	Top5Share float64
	// GroupTraffic maps subgroup → share of traffic.
	GroupTraffic map[string]float64
	// GroupMembers maps subgroup → share of entities.
	GroupMembers map[string]float64
}

// Fig10PeerPareto computes per-peer traffic centralization for the DHT
// (Hydra log) and Bitswap (monitor log), split gateway/non-gateway.
func (o *Observatory) Fig10PeerPareto() (dht, bitswap ParetoResult) {
	group := func(p ids.PeerID) string {
		if o.GatewaySet[p] {
			return "gateway"
		}
		return "non-gateway"
	}
	return pareto(o.HydraStats().EachPeerActivity, group),
		pareto(o.MonitorStats().EachPeerActivity, group)
}

// pareto consumes an accumulator's activity iterator (per peer or per
// IP) directly: the four analyses stream the columnar per-handle
// counters instead of each experiment materializing (and the memo
// retaining) a copy of the full activity map.
func pareto[K comparable](act trace.Seq[K], group func(K) string) ParetoResult {
	return ParetoResult{
		Top5Share:    trace.TopShare(act, 0.05),
		GroupTraffic: trace.GroupTrafficShare(act, group),
		GroupMembers: trace.GroupMemberShare(act, group),
	}
}

// Fig11IPPareto computes per-IP traffic centralization with the
// cloud/non-cloud split.
func (o *Observatory) Fig11IPPareto() (dht, bitswap ParetoResult) {
	cloudAttr := o.World.CloudAttr()
	return pareto(o.HydraStats().EachIPActivity, cloudAttr), pareto(o.MonitorStats().EachIPActivity, cloudAttr)
}

// --- Fig. 12: cloud per traffic type ---

// Fig12Result contrasts by-IP-count and by-traffic provider shares for
// download vs advertise DHT traffic.
type Fig12Result struct {
	// UniqueIPShares: provider → share of distinct IPs, per class.
	UniqueIPShares map[trace.Class]map[string]float64
	// TrafficShares: provider → share of messages, per class.
	TrafficShares map[trace.Class]map[string]float64
	// CloudByCount / CloudByTraffic aggregate cloud shares overall.
	CloudByCount   float64
	CloudByTraffic float64
}

// Fig12CloudPerTrafficType analyses the Hydra vantage per traffic
// class, from the per-class streaming statistics.
func (o *Observatory) Fig12CloudPerTrafficType() Fig12Result {
	provAttr := o.World.ProviderAttr()
	cloudAttr := o.World.CloudAttr()
	st := o.HydraStats()

	res := Fig12Result{
		UniqueIPShares: make(map[trace.Class]map[string]float64),
		TrafficShares:  make(map[trace.Class]map[string]float64),
	}
	for _, cl := range []trace.Class{trace.Download, trace.Advertise} {
		res.UniqueIPShares[cl] = st.ClassUniqueIPShare(cl, provAttr)
		res.TrafficShares[cl] = st.ClassGroupShareByIP(cl, provAttr)
	}
	res.CloudByCount = st.UniqueIPShare(cloudAttr)["cloud"]
	res.CloudByTraffic = st.GroupShareByIP(cloudAttr)["cloud"]
	return res
}

// --- Fig. 13: platforms ---

// Fig13Result maps platform → traffic share per view.
type Fig13Result struct {
	DHTAll       map[string]float64
	DHTDownload  map[string]float64
	DHTAdvertise map[string]float64
	Bitswap      map[string]float64
}

// Fig13Platforms attributes traffic to platforms: Hydra-head senders by
// overlay identity (the pipelines' tagged traffic), everything else by
// rDNS over the source IP. The invariant suite holds each share equal to
// a per-event attribution over the retained raw logs.
func (o *Observatory) Fig13Platforms() Fig13Result {
	attr := o.World.PlatformOfIP
	hydraTag := scenario.PlatformLabelHydra
	hs := o.HydraStats()
	return Fig13Result{
		DHTAll:       hs.TaggedGroupShareByIP(hydraTag, attr),
		DHTDownload:  hs.ClassTaggedGroupShareByIP(trace.Download, hydraTag, attr),
		DHTAdvertise: hs.ClassTaggedGroupShareByIP(trace.Advertise, hydraTag, attr),
		Bitswap:      o.MonitorStats().TaggedGroupShareByIP(hydraTag, attr),
	}
}

// --- Figs. 14–16: providers and content ---

// Fig14ProviderClass classifies providers and relay usage.
func (o *Observatory) Fig14ProviderClass() (map[provrecords.Class]float64, float64) {
	profiles := o.ProviderProfiles()
	return provrecords.ClassShares(profiles), provrecords.RelayCloudShare(profiles, o.isCloud())
}

// Fig15ProviderPopularity returns the popularity Pareto plus per-class
// appearance shares.
func (o *Observatory) Fig15ProviderPopularity() ([]stats.ParetoPoint, map[provrecords.Class]float64) {
	profiles := o.ProviderProfiles()
	return provrecords.PopularityPareto(profiles), provrecords.ClassAppearanceShares(profiles)
}

// Fig16ContentCloud classifies CIDs by their providers' cloud share.
func (o *Observatory) Fig16ContentCloud() provrecords.ContentCloudStats {
	return provrecords.ContentCloud(&o.Records, o.isCloud())
}

func (o *Observatory) isCloud() provrecords.CloudFunc {
	db := o.World.DB
	return func(ip netip.Addr) bool { return db.Lookup(ip).Cloud() }
}

// --- Fig. 17: DNSLink ---

// Fig17Result holds the DNSLink distributions.
type Fig17Result struct {
	Domains        int
	ByProvider     map[string]float64 // share of fronting IPs per provider
	ByGateway      map[string]float64 // share of domains per gateway
	GatewayIPShare float64            // fraction of IPs belonging to public gateways
}

// Fig17DNSLink analyses the active-scan results.
func (o *Observatory) Fig17DNSLink() Fig17Result {
	provAttr := o.World.ProviderAttr()
	byProv := normalize(dnslink.IPsByAttr(o.DNSLinkResults, provAttr))
	byGw := dnslink.GatewayShares(o.DNSLinkResults, "non-gateway")
	gwShare := 0.0
	if ng, ok := byGw["non-gateway"]; ok {
		gwShare = 1 - ng
	} else if len(byGw) > 0 {
		gwShare = 1
	}
	return Fig17Result{
		Domains:        len(o.DNSLinkResults),
		ByProvider:     byProv,
		ByGateway:      byGw,
		GatewayIPShare: gwShare,
	}
}

// --- Figs. 18/19: gateway frontends vs overlay ---

// GatewaySidesResult compares HTTP-facing and overlay-facing gateway IPs
// under an attribute.
type GatewaySidesResult struct {
	Frontend map[string]float64
	Overlay  map[string]float64
}

// gatewaySides gathers frontend IPs (passive DNS over gateway domains)
// and overlay IPs (census overlay IDs resolved to addresses).
func (o *Observatory) gatewaySides(attr func(netip.Addr) string) GatewaySidesResult {
	front := make(map[string]float64)
	seenF := map[netip.Addr]bool{}
	for _, gw := range o.World.PublicGateways() {
		for _, ip := range o.World.DNS.PassiveIPs(gw.Domain()) {
			if !seenF[ip] {
				seenF[ip] = true
				front[attr(ip)]++
			}
		}
	}
	overlay := make(map[string]float64)
	seenO := map[netip.Addr]bool{}
	for _, idsList := range o.Census {
		for _, id := range idsList {
			ip := o.World.Net.PrimaryIP(id)
			if ip.IsValid() && !seenO[ip] {
				seenO[ip] = true
				overlay[attr(ip)]++
			}
		}
	}
	return GatewaySidesResult{Frontend: normalize(front), Overlay: normalize(overlay)}
}

// Fig18GatewayProviders compares the two sides by cloud provider.
func (o *Observatory) Fig18GatewayProviders() GatewaySidesResult {
	return o.gatewaySides(o.World.ProviderAttr())
}

// Fig19GatewayGeo compares the two sides by country.
func (o *Observatory) Fig19GatewayGeo() GatewaySidesResult {
	return o.gatewaySides(o.World.CountryAttr())
}

// --- Fig. 20: ENS ---

// Fig20Result holds the ENS content-provider distributions.
type Fig20Result struct {
	Records     int
	UniqueIPs   int
	ByProvider  map[string]float64
	ByCountry   map[string]float64
	CloudShare  float64
	ResolvedCID int
}

// Fig20ENS attributes the providers of ENS-referenced content (taking
// unique IPs over all provider-record addresses, as the paper does).
func (o *Observatory) Fig20ENS() Fig20Result {
	provAttr := o.World.ProviderAttr()
	countryAttr := o.World.CountryAttr()
	cloudAttr := o.World.CloudAttr()

	byProv := make(map[string]float64)
	byCountry := make(map[string]float64)
	cloud := 0.0
	seen := map[netip.Addr]bool{}
	resolved := 0
	for _, cr := range o.ENSProviders.PerCID {
		if len(cr.Records) > 0 {
			resolved++
		}
		for _, rec := range cr.Records {
			for _, a := range rec.Provider.Addrs {
				if !a.IP.IsValid() || seen[a.IP] {
					continue
				}
				seen[a.IP] = true
				byProv[provAttr(a.IP)]++
				byCountry[countryAttr(a.IP)]++
				if cloudAttr(a.IP) == "cloud" {
					cloud++
				}
			}
		}
	}
	res := Fig20Result{
		Records:     len(o.ENSRecords),
		UniqueIPs:   len(seen),
		ByProvider:  normalize(byProv),
		ByCountry:   normalize(byCountry),
		ResolvedCID: resolved,
	}
	if len(seen) > 0 {
		res.CloudShare = cloud / float64(len(seen))
	}
	return res
}

// --- Section 5 mix ---

// Section5Mix returns the DHT traffic class mix at the Hydra vantage.
func (o *Observatory) Section5Mix() map[trace.Class]float64 {
	return o.HydraStats().Mix()
}

// --- Section 4 churn evidence ---

// ChurnResult summarises liveness by cloud status — the §4 evidence that
// non-cloud nodes are short-lived and rotate addresses.
type ChurnResult struct {
	// Groups holds per-group (cloud / non-cloud) liveness summaries.
	Groups []churn.GroupSummary
}

// SectionChurn analyses peer liveness over the crawl series, grouped by
// cloud status of the peers' observed addresses.
func (o *Observatory) SectionChurn() ChurnResult {
	peers := churn.Analyze(&o.Crawls)
	// Attribute each peer by its addresses in the last snapshot it
	// appeared in; fall back over the series.
	cloudOf := make(map[ids.PeerID]string)
	cloudAttr := o.World.CloudAttr()
	for _, snap := range o.Crawls.Snapshots {
		for i := range snap.Peers {
			obs := &snap.Peers[i]
			for _, ip := range obs.IPs() {
				cloudOf[obs.Peer] = cloudAttr(ip)
			}
		}
	}
	group := func(p churn.PeerStats) string {
		if g, ok := cloudOf[p.Peer]; ok {
			return g
		}
		return "unknown"
	}
	return ChurnResult{Groups: churn.Summarize(peers, group)}
}
