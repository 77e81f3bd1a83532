package scenario

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"

	"tcsb/internal/dnssim"
	"tcsb/internal/gateway"
	"tcsb/internal/hydra"
	"tcsb/internal/ids"
	"tcsb/internal/intern"
	"tcsb/internal/ipdb"
	"tcsb/internal/kademlia"
	"tcsb/internal/maddr"
	"tcsb/internal/monitor"
	"tcsb/internal/netsim"
	"tcsb/internal/node"
	"tcsb/internal/stats"
	"tcsb/internal/trace"
)

// Platform labels for the actors the paper identifies in Fig. 13.
const (
	PlatformWeb3Storage = "web3.storage"
	PlatformNFTStorage  = "nft.storage"
	PlatformIPFSBank    = "ipfs-bank.io"
	PlatformFilebase    = "filebase.com"
	PlatformPinata      = "pinata.cloud"
)

// Actor is one simulated participant and its ground-truth attributes.
type Actor struct {
	Node     *node.Node
	ID       ids.PeerID
	NAT      bool
	Cloud    bool
	Provider string // ipdb provider label (NonCloud for residential)
	Country  string
	Platform string // "" for ordinary peers
	IP       netip.Addr
	Relay    ids.PeerID // circuit relay for NAT actors
	Online   bool
	// PinnedOffline marks an actor taken down by a counterfactual
	// intervention (e.g. a provider outage): churn never brings it back.
	PinnedOffline bool
	// Owned is the content this actor originally published.
	Owned []ids.CID
	// activity weights how often the actor issues requests.
	activity float64
}

// catalogEntry tracks a published CID's lifecycle; publish fills in the
// CID and owner.
type catalogEntry struct {
	cid      ids.CID
	owner    ids.PeerID
	bornTick int
	// dieTick is when the owner stops providing; ignored for persistent
	// content.
	dieTick int
	// persistent marks platform/ENS content that never expires.
	persistent bool
}

// World is a fully built simulated IPFS ecosystem.
//
// Ticks execute in sharded phases (shards.go): planning fans out over
// Shards fixed per-tick RNG streams, mutation applies in shard order,
// and the expensive phases (request traffic, Hydra drains) run on
// Workers goroutines over netsim Effects lanes. The evolution is
// byte-identical for every Workers value.
type World struct {
	Cfg Config
	// Rng is the serial master stream: world construction and the
	// serial apply phases draw from it. Parallel planners use
	// per-(tick, shard) splitmix-derived streams instead (shardRNG).
	Rng *rand.Rand
	// Workers bounds the goroutine pool used for tick phases and crawls
	// (1 = fully serial execution; results are identical either way).
	Workers int
	Net     *netsim.Network
	// Intern aliases Net.Intern: the world's dense identifier handle
	// tables (see package intern). Handles are derived state — excluded
	// from Config.Digest and never rendered — but the tables' canonical
	// contents fold into Snapshot so the worker-determinism tests cover
	// handle assignment.
	Intern *intern.Tables
	DB     *ipdb.DB
	Alloc  *ipdb.Allocator
	DNS    *dnssim.Universe

	Actors  map[ids.PeerID]*Actor
	order   []ids.PeerID // creation order, for deterministic iteration
	servers []ids.PeerID // DHT servers (incl. platform + gateway nodes)
	clients []ids.PeerID // NAT fringe
	ring    []ids.PeerID // servers sorted by key (topology oracle)
	Monitor *monitor.Monitor
	// Hydra is the measurement vantage (logging) booster; PLHydras are
	// the Protocol Labs production boosters.
	Hydra    *hydra.Hydra
	PLHydras []*hydra.Hydra
	Gateways []*gateway.Gateway // [0] is the Cloudflare-style CDN gateway
	// IPFSBank is the heavy HTTP platform gateway (also in Gateways, but
	// NOT in the public gateway list: the paper discovers it via rDNS,
	// not via the gateway checker).
	IPFSBank *gateway.Gateway
	// platformNodes maps storage platforms to their overlay nodes; the
	// whole cluster co-advertises every catalogue CID.
	platformNodes map[string][]*node.Node
	// bankIdx is IPFSBank's index in Gateways (request planning routes
	// the platform's share of HTTP traffic by index).
	bankIdx int
	// Timing folds per-phase virtual link latencies (gateway fetches,
	// direct lookups, crawl waves, probe rounds) into bounded percentile
	// sketches read by the latency.* experiments. Samples route through
	// the effect lanes, so every quantile is byte-identical for every
	// Workers value.
	Timing *trace.TimingSink

	catalog []catalogEntry
	live    []int // indices into catalog of currently-provided CIDs
	// zipf drives direct-user request popularity (head-heavy); zipfTail
	// drives gateway request popularity (much flatter).
	zipf     *stats.ZipfApprox
	zipfTail *stats.ZipfApprox

	tick    int
	peerSeq uint64
	cidSeq  uint64

	// Adversarial state planted by LaunchAttacks (attack.go): the
	// targeted CIDs, the minted sybil identities in creation order, and
	// the membership set behind IsAttacker. Attackers are network hosts
	// but never Actors — the census invariants depend on the separation.
	attackTargets []ids.CID
	attackers     []ids.PeerID
	attackerSet   map[ids.PeerID]bool

	// viewsBuf backs shardViews (reused across tick phases).
	viewsBuf []shardView
}

// NewWorld builds the world: population, topology, platforms, gateways,
// monitor, hydra, initial content. The clock starts at tick 0.
func NewWorld(cfg Config) *World {
	w := &World{
		Cfg:     cfg,
		Rng:     rand.New(rand.NewSource(cfg.Seed)),
		Workers: 1,
		Net:     netsim.New(),
		DB:      ipdb.Default(),
		DNS:     dnssim.NewUniverse(),
		Actors:  make(map[ids.PeerID]*Actor),
	}
	w.Intern = w.Net.Intern
	w.Alloc = ipdb.NewAllocator(w.DB, w.Rng)
	w.peerSeq = uint64(cfg.Seed)<<32 + 1
	w.installLinkModel()
	w.Timing = trace.NewTimingSink(cfg.RetainTrace)

	w.buildServers()
	w.buildPlatforms()
	w.buildGateways()
	w.buildMonitor()
	w.buildHydra()
	w.buildClients()
	w.rebuildRing()
	w.fillTopology()
	w.wireBitswap()
	w.seedContent()
	return w
}

// linkSeedLabel derives the link-model draw stream from the world seed
// (disjoint from the per-(tick, shard) planner streams, which use the
// three-label family).
const linkSeedLabel = 0x1a7e

// installLinkModel resolves Cfg.NetProfile and (re)installs it on the
// network. Invalid profiles panic: specs are validated at the CLI and
// intervention boundaries, so an invalid one here is a programming
// error. SetLinkModel preserves the lifetime draw counters, so a
// mid-run re-install (a timeline @E:net.* epoch) swaps distributions
// without replaying earlier draws.
func (w *World) installLinkModel() {
	prof, err := netsim.ResolveLinkProfile(w.Cfg.NetProfile)
	if err != nil {
		panic(fmt.Sprintf("scenario: invalid NetProfile %q: %v", w.Cfg.NetProfile, err))
	}
	w.Net.SetLinkModel(prof, ids.DeriveSeed(uint64(w.Cfg.Seed), linkSeedLabel))
}

// linkClassOf maps an actor's hosting to its impairment class.
func linkClassOf(cloud bool) netsim.LinkClass {
	if cloud {
		return netsim.LinkCloud
	}
	return netsim.LinkResi
}

func (w *World) nextPeerID() ids.PeerID {
	w.peerSeq++
	return ids.PeerIDFromSeed(w.peerSeq)
}

func (w *World) nextCID() ids.CID {
	w.cidSeq++
	c := ids.CIDFromSeed(uint64(w.Cfg.Seed)<<32 + w.cidSeq)
	w.Intern.CID(c) // CID mints are driver-serial: intern at the source
	return c
}

// pickWeighted draws a key from a weight map deterministically.
func (w *World) pickWeighted(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	weights := make([]float64, len(keys))
	for i, k := range keys {
		weights[i] = m[k]
	}
	return keys[stats.WeightedChoice(w.Rng, weights)]
}

// cloudCountryFor picks a country for a provider, retrying the weighted
// country draw until the address plan has a range of the provider in
// that country, so the allocator never panics on the pair.
func (w *World) cloudCountryFor(provider string) string {
	for i := 0; i < 32; i++ {
		c := w.pickWeighted(w.Cfg.CloudCountryWeights)
		if w.DB.Covers(provider, c) {
			return c
		}
	}
	return "" // allocator picks any of the provider's ranges
}

// addServerActor creates a reachable DHT server actor.
func (w *World) addServerActor(cloud bool, provider, country, platform string, activity float64) *Actor {
	var ip netip.Addr
	if cloud {
		ip = w.Alloc.CloudIP(provider, country)
	} else {
		ip = w.Alloc.ResidentialIP(country)
	}
	info := w.DB.Lookup(ip)
	a := &Actor{
		ID: w.nextPeerID(), Cloud: cloud,
		Provider: info.Provider, Country: info.Country,
		Platform: platform, IP: ip, Online: true, activity: activity,
	}
	w.join(a)
	if platform != "" {
		w.DNS.RegisterRDNS(ip, dnssim.FormatPTR(ip, platform))
	}
	w.order = append(w.order, a.ID)
	w.servers = append(w.servers, a.ID)
	return a
}

// join builds a's node — a DHT server unless a is NAT-ed — attaches it
// to the network and registers the actor.
func (w *World) join(a *Actor) {
	a.Node = node.New(a.ID, w.Net, node.Config{DHTServer: !a.NAT})
	w.attach(a)
	w.Actors[a.ID] = a
}

// attach registers a's node on the network: a server at its own
// address, a NAT client behind the circuit address of its relay. A NAT
// client's own IP is only the source of its outbound connections, which
// SetAddrs cannot change, so rotateIP attaches such a client again.
func (w *World) attach(a *Actor) {
	cfg := netsim.HostConfig{Reachable: !a.NAT, LinkClass: linkClassOf(a.Cloud)}
	if a.NAT {
		cfg.Relay = a.Relay
		cfg.SourceIP = a.IP
		cfg.Addrs = []maddr.Addr{maddr.NewCircuit(w.Net.PrimaryIP(a.Relay), maddr.TCP, 4001, a.Relay.String())}
	} else {
		cfg.Addrs = addrList(a.IP)
	}
	w.Net.Attach(a.ID, a.Node, cfg)
}

func (w *World) buildServers() {
	for i := 0; i < w.Cfg.Servers; i++ {
		if w.Rng.Float64() < w.Cfg.CloudServerFrac {
			provider := w.pickWeighted(w.Cfg.ProviderWeights)
			country := w.cloudCountryFor(provider)
			w.addServerActor(true, provider, country, "", 0.25)
		} else {
			country := w.pickWeighted(w.Cfg.ResidentialCountryWeights)
			w.addServerActor(false, "", country, "", 1.0)
		}
	}
}

// buildPlatforms creates the storage/pinning platform actors.
func (w *World) buildPlatforms() {
	w.platformNodes = make(map[string][]*node.Node)
	spawn := func(n int, provider, platform string, activity float64) []*Actor {
		out := make([]*Actor, n)
		for i := 0; i < n; i++ {
			out[i] = w.addServerActor(true, provider, "", platform, activity)
			w.platformNodes[platform] = append(w.platformNodes[platform], out[i].Node)
		}
		return out
	}
	spawn(6, ipdb.AmazonAWS, PlatformWeb3Storage, 2)
	spawn(5, ipdb.AmazonAWS, PlatformNFTStorage, 2)
	spawn(4, ipdb.Choopa, PlatformFilebase, 2)
	spawn(3, ipdb.AmazonAWS, PlatformPinata, 2)
}

// buildGateways creates the public HTTP gateway ecosystem and its DNS
// footprint (frontends, passive DNS).
func (w *World) buildGateways() {
	mkNodes := func(n int, cloud bool, provider, platform string) []*node.Node {
		nodes := make([]*node.Node, n)
		for i := 0; i < n; i++ {
			var a *Actor
			if cloud {
				a = w.addServerActor(true, provider, "", platform, 1)
			} else {
				country := w.pickWeighted(w.Cfg.ResidentialCountryWeights)
				a = w.addServerActor(false, "", country, platform, 1)
			}
			nodes[i] = a.Node
		}
		return nodes
	}
	frontends := func(n int, provider string) []netip.Addr {
		out := make([]netip.Addr, n)
		for i := range out {
			out[i] = w.Alloc.CloudIP(provider, "")
		}
		return out
	}

	// The Cloudflare-style CDN gateway: Cloudflare frontends AND
	// Cloudflare-internal overlay IPs (the paper's observation that even
	// the overlay side sits behind Cloudflare reverse proxies).
	cf := gateway.New("cloudflare-ipfs.com",
		frontends(6, ipdb.Cloudflare),
		mkNodes(w.Cfg.CloudflareGatewayNodes, true, ipdb.Cloudflare, "cloudflare-ipfs.com"))
	w.Gateways = append(w.Gateways, cf)

	// ipfs.io, operated by Protocol Labs on cloud infra.
	w.Gateways = append(w.Gateways, gateway.New("ipfs.io",
		frontends(2, ipdb.AmazonAWS),
		mkNodes(3, true, ipdb.AmazonAWS, "ipfs.io")))

	// The ipfs-bank-style HTTP platform dominating Bitswap traffic.
	w.IPFSBank = gateway.New(PlatformIPFSBank,
		frontends(2, ipdb.AmazonAWS),
		mkNodes(4, true, ipdb.AmazonAWS, PlatformIPFSBank))
	w.Gateways = append(w.Gateways, w.IPFSBank)
	w.bankIdx = len(w.Gateways) - 1

	// Small community gateways: mixed hosting, some non-cloud (the open
	// ecosystem the paper calls commendable).
	providers := []string{ipdb.Hetzner, ipdb.DigitalOcean, ipdb.OVH, ipdb.Vultr}
	for i := 0; i < w.Cfg.SmallGateways; i++ {
		domain := fmt.Sprintf("gw%d.ipfs-gateway.dev", i)
		cloud := w.Rng.Float64() < 0.65
		var nodes []*node.Node
		var fronts []netip.Addr
		if cloud {
			p := providers[i%len(providers)]
			nodes = mkNodes(1, true, p, domain)
			fronts = []netip.Addr{w.actorOf(nodes[0]).IP}
		} else {
			nodes = mkNodes(1, false, "", domain)
			fronts = []netip.Addr{w.actorOf(nodes[0]).IP}
		}
		w.Gateways = append(w.Gateways, gateway.New(domain, fronts, nodes))
	}

	// DNS footprint: every gateway's frontends are visible in passive DNS
	// and as A records.
	for _, gw := range w.Gateways {
		ips := gw.FrontendIPs()
		w.DNS.SetA(gw.Domain(), ips...)
		for _, ip := range ips {
			w.DNS.ObservePassive(gw.Domain(), ip)
		}
	}
}

func (w *World) actorOf(nd *node.Node) *Actor { return w.Actors[nd.ID()] }

func (w *World) buildMonitor() {
	id := w.nextPeerID()
	w.Monitor = monitor.New(id, w.Net, trace.NewPipeline(trace.Options{
		Retain:  w.Cfg.RetainTrace,
		TagPeer: w.IsHydraHead,
		Intern:  w.Net.Intern,
	}))
	ip := w.Alloc.ResidentialIP("DE") // the paper's vantage point: Germany
	w.Net.Attach(id, w.Monitor, netsim.HostConfig{
		Reachable: true,
		Addrs:     addrList(ip),
		LinkClass: netsim.LinkResi,
	})
}

// PlatformHydra labels the Protocol Labs Hydra deployment in rDNS.
const PlatformHydra = "hydra-booster.io"

// buildHydra creates the Hydra boosters: w.Hydra is the authors'
// measurement vantage (a modified Hydra that logs every incoming DHT
// request), and w.PLHydras are the Protocol Labs production instances
// whose cache-filling lookups make "hydra" dominate download-related DHT
// traffic at the vantage point (Fig. 13). All are AWS-hosted, per the
// paper.
//
// Observation pipelines: the vantage streams into a trace.Accum whose
// analysis view excludes the observatory's own crawler and collector
// identities (the authors exclude their tools from the logs) and tags
// Hydra-head senders for the Fig. 13 identity attribution; raw events
// are retained only under Cfg.RetainTrace. The production boosters get
// nil pipelines, which record nothing: nothing ever reads their logs,
// and a default-scale campaign would otherwise retain gigabytes of them.
func (w *World) buildHydra() {
	attach := func(h *hydra.Hydra) {
		for _, head := range h.Heads() {
			ip := w.Alloc.CloudIP(ipdb.AmazonAWS, "US")
			w.Net.Attach(head, h, netsim.HostConfig{
				Reachable: true,
				Addrs:     addrList(ip),
				LinkClass: netsim.LinkCloud,
			})
			w.DNS.RegisterRDNS(ip, dnssim.FormatPTR(ip, PlatformHydra))
		}
	}
	crawlerID, collectorID := w.CrawlerID(), w.CollectorID()
	w.Hydra = hydra.New(w.Net, uint64(w.Cfg.Seed)<<40+0x4d9a, hydra.Config{
		Heads:            w.Cfg.HydraHeads,
		ProactiveLookups: w.Cfg.HydraProactiveLookups,
		Pipe: trace.NewPipeline(trace.Options{
			Retain:  w.Cfg.RetainTrace,
			TagPeer: w.IsHydraHead,
			Intern:  w.Net.Intern,
			Keep: func(e trace.Event) bool {
				return e.Peer != crawlerID && e.Peer != collectorID
			},
		}),
	})
	attach(w.Hydra)
	for i := 0; i < w.Cfg.PLHydraCount; i++ {
		h := hydra.New(w.Net, uint64(w.Cfg.Seed)<<40+0x77e0+uint64(i)*0x1000, hydra.Config{
			Heads:            w.Cfg.HydraHeads,
			ProactiveLookups: true,
		})
		attach(h)
		w.PLHydras = append(w.PLHydras, h)
	}
}

// IsHydraHead reports whether p belongs to any Hydra deployment
// (vantage or Protocol Labs). It is also the TagPeer predicate of the
// vantage pipelines (nil-safe: the monitor is built before the Hydra).
func (w *World) IsHydraHead(p ids.PeerID) bool {
	if w.Hydra != nil && w.Hydra.IsHead(p) {
		return true
	}
	for _, h := range w.PLHydras {
		if h.IsHead(p) {
			return true
		}
	}
	return false
}

// buildClients creates the NAT-ed DHT client fringe. Each client picks a
// random DHT server as circuit relay; because ~80% of servers are cloud,
// ~80% of NAT-ed providers end up relaying through cloud nodes — Fig. 14
// bottom emerges rather than being hard-coded.
func (w *World) buildClients() {
	for i := 0; i < w.Cfg.NATClients; i++ {
		country := w.pickWeighted(w.Cfg.ResidentialCountryWeights)
		ip := w.Alloc.ResidentialIP(country)
		a := &Actor{
			ID: w.nextPeerID(), NAT: true,
			Provider: ipdb.NonCloud, Country: country,
			IP: ip, Relay: w.randomServer(), Online: true, activity: 2.0,
		}
		w.join(a)
		w.order = append(w.order, a.ID)
		w.clients = append(w.clients, a.ID)
	}
}

// randomServer returns a uniformly random ordinary-or-platform server ID.
func (w *World) randomServer() ids.PeerID {
	return w.servers[w.Rng.Intn(len(w.servers))]
}

// rebuildRing refreshes the key-sorted server list used as the topology
// oracle. Hydra heads are DHT servers too: they must be eligible
// resolvers, or no provider record would ever land on a Hydra.
func (w *World) rebuildRing() {
	w.ring = append(w.ring[:0], w.servers...)
	if w.Hydra != nil {
		w.ring = append(w.ring, w.Hydra.Heads()...)
		for _, h := range w.PLHydras {
			w.ring = append(w.ring, h.Heads()...)
		}
	}
	sort.Slice(w.ring, func(i, j int) bool {
		return w.ring[i].Key().Cmp(w.ring[j].Key()) < 0
	})
}

// fillTopology populates routing tables: every actor (and the Hydra)
// learns its K nearest servers plus a random sample, approximating the
// steady state that joins plus bucket refreshes produce. Stale entries
// appear later through churn, exactly as in the wild.
func (w *World) fillTopology() {
	for _, id := range w.order {
		a := w.Actors[id]
		w.fillTableOf(a)
	}
	// Hydra learns broadly (it sees everyone's traffic).
	var seeds []netsim.PeerInfo
	for _, s := range w.servers {
		seeds = append(seeds, w.Net.Info(s))
	}
	w.Hydra.Bootstrap(seeds)
	for _, h := range w.PLHydras {
		h.Bootstrap(seeds)
	}
	// Everyone learns a couple of hydra heads (they are ordinary DHT
	// servers from the network's perspective).
	var heads []ids.PeerID
	heads = append(heads, w.Hydra.Heads()...)
	for _, h := range w.PLHydras {
		heads = append(heads, h.Heads()...)
	}
	for _, id := range w.order {
		a := w.Actors[id]
		for j := 0; j < 6; j++ {
			a.Node.LearnPeer(heads[w.Rng.Intn(len(heads))], 0)
		}
	}
}

// fillTableOf gives one actor a realistic routing table: its K closest
// servers (deep buckets, required for provide/lookup correctness) plus a
// random spread (far buckets, required for O(log n) routing).
func (w *World) fillTableOf(a *Actor) {
	now := w.Net.Clock.Now()
	for _, p := range w.nearestServers(a.ID.Key(), 24) {
		if p != a.ID {
			a.Node.LearnPeer(p, now)
		}
	}
	for i := 0; i < 120; i++ {
		p := w.servers[w.Rng.Intn(len(w.servers))]
		if p != a.ID {
			a.Node.LearnPeer(p, now)
		}
	}
	// Filebase runs modified clients with very high connectivity: they
	// also learn (and get learned by) far more peers, producing the
	// high-in-degree outliers of Fig. 7.
	if a.Platform == PlatformFilebase {
		for i := 0; i < 2000 && i < len(w.servers); i++ {
			other := w.Actors[w.servers[i]]
			other.Node.LearnPeer(a.ID, now)
			a.Node.LearnPeer(other.ID, now)
		}
	}
}

// nearestServers returns the n servers closest to target on the key ring
// (exact via local sort of a window around the binary-search insertion
// point — the ring is sorted by key, and XOR distance is locally
// correlated with key order only near the target, so we widen the window
// generously and sort).
func (w *World) nearestServers(target ids.Key, n int) []ids.PeerID {
	if len(w.ring) == 0 {
		return nil
	}
	// Window of 8n around the insertion point covers the true n nearest
	// under XOR with overwhelming probability for random keys; for exact
	// behaviour at small scale select over everything when the ring is
	// small. Selection (kademlia.AppendSelectNearest) replaces the former
	// window sort: same result, no O(w log w) comparator churn.
	if len(w.ring) <= 8*n {
		return kademlia.AppendSelectNearest(nil, w.ring, target, n)
	}
	i := sort.Search(len(w.ring), func(i int) bool {
		return w.ring[i].Key().Cmp(target) >= 0
	})
	lo := i - 4*n
	hi := i + 4*n
	if lo < 0 {
		lo = 0
	}
	if hi > len(w.ring) {
		hi = len(w.ring)
	}
	return kademlia.AppendSelectNearest(nil, w.ring[lo:hi], target, n)
}

// wireBitswap sets up every actor's Bitswap neighbourhood.
func (w *World) wireBitswap() {
	for _, id := range w.order {
		w.wireBitswapOf(w.Actors[id])
	}
}

// wireBitswapOf connects a to random actors, both ways: BitswapDegree of
// them for ordinary nodes, four times as many for gateways and
// platforms. MonitorCoverage of all actors also connect to the monitor.
func (w *World) wireBitswapOf(a *Actor) {
	deg := w.Cfg.BitswapDegree
	if a.Platform != "" {
		deg *= 4
	}
	for j := 0; j < deg; j++ {
		other := w.order[w.Rng.Intn(len(w.order))]
		if other != a.ID {
			a.Node.ConnectBitswap(other)
			w.Actors[other].Node.ConnectBitswap(a.ID)
		}
	}
	if w.Rng.Float64() < w.Cfg.MonitorCoverage {
		a.Node.ConnectBitswap(w.Monitor.ID())
	}
}

// seedContent publishes the initial catalogue: persistent platform
// content and an initial batch of ephemeral user content.
func (w *World) seedContent() {
	platformOwners := map[string][]*Actor{}
	for _, id := range w.order {
		a := w.Actors[id]
		switch a.Platform {
		case PlatformWeb3Storage, PlatformNFTStorage, PlatformFilebase, PlatformPinata:
			platformOwners[a.Platform] = append(platformOwners[a.Platform], a)
		}
	}
	for _, platform := range []string{PlatformWeb3Storage, PlatformNFTStorage, PlatformFilebase, PlatformPinata} {
		owners := platformOwners[platform]
		if len(owners) == 0 {
			continue
		}
		n := w.Cfg.PlatformCIDs
		if platform == PlatformFilebase || platform == PlatformPinata {
			n /= 2
		}
		for i := 0; i < n; i++ {
			w.publish(owners[w.Rng.Intn(len(owners))], catalogEntry{persistent: true}, true)
		}
	}
	// Initial user content: published by random actors (servers and NAT
	// clients alike), short-lived. Ages are staggered as if the content
	// had been published over the preceding days, so expiries spread out
	// instead of arriving in a burst. The publisher draw runs over the
	// whole population with the master stream.
	everyone := &shardView{actors: w.order, clients: w.clients, servers: w.servers}
	for i := 0; i < w.Cfg.UserCIDs; i++ {
		born := w.tick - w.Rng.Intn(48)
		a := w.planPublisher(w.Rng, everyone)
		if a == nil {
			continue
		}
		// Lifetime 1–3 days, matching Fig. 9's short CID lifetimes.
		die := born + 24 + w.Rng.Intn(48)
		// Only content still alive draws a walk coin; drawing one for
		// expired content would shift every later draw of the stream.
		walk := die > w.tick && w.Rng.Float64() < 0.4
		w.publish(a, catalogEntry{bornTick: born, dieTick: die}, walk)
	}
	w.rebuildSamplers()
}

// publish mints a CID owned by a and appends e, carrying it, to the
// catalogue. Content that is persistent or still alive at the current
// tick is stored and advertised: by the standard iterative walk, or
// straight to its resolvers as the accelerated DHT client does.
// Historical content that has already expired stays in the catalogue
// (and keeps being requested) but is provided by no one.
//
// The mint interns the CID before the advertisement, whose handlers
// intern too.
func (w *World) publish(a *Actor, e catalogEntry, walk bool) ids.CID {
	e.cid, e.owner = w.nextCID(), a.ID
	w.catalog = append(w.catalog, e)
	if !e.persistent && e.dieTick <= w.tick {
		return e.cid
	}
	a.Node.AddBlock(e.cid)
	if walk {
		a.Node.Provide(nil, e.cid)
	} else {
		a.Node.ProvideDirect(nil, e.cid, w.resolversFor(e.cid))
	}
	a.Owned = append(a.Owned, e.cid)
	w.live = append(w.live, len(w.catalog)-1)
	return e.cid
}

// gatewayZipfExponent shapes gateway request popularity, much flatter
// than the direct users' Cfg.ZipfExponent.
const gatewayZipfExponent = 0.35

// rebuildSamplers builds the popularity samplers over the current
// catalogue, so newly published content becomes requestable (rank order
// keeps platform content at the head). The world builds them at
// construction and rebuilds them daily as the catalogue grows; shard
// planners draw from these shared immutable tables with their own RNGs.
func (w *World) rebuildSamplers() {
	w.zipf = stats.NewZipfApprox(w.Cfg.ZipfExponent, len(w.catalog))
	w.zipfTail = stats.NewZipfApprox(gatewayZipfExponent, len(w.catalog))
}

// addrList builds the advertised address list for a public node.
func addrList(ip netip.Addr) []maddr.Addr {
	return []maddr.Addr{maddr.New(ip, maddr.TCP, 4001)}
}
