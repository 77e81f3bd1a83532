package scenario

// Adversarial scenario hooks: the attack.* family (internal/attack)
// composes these into named interventions the same way counterfactual
// outages compose the hooks in intervene.go. Attacks are launched by
// LaunchAttacks — from a -what-if Mutate before the campaign, or from a
// scheduled @E:attack.* timeline action at an epoch boundary — and
// their sustained traffic runs in stepAttackTraffic, a serial tick
// phase. Every draw comes from the serial master RNG or from tick
// arithmetic, so attacked worlds inherit the byte-identical-across-
// Workers guarantee unchanged.
//
// Attacker identities are deliberately NOT Actors: the paper's census
// counts the population under study, and a sybil swarm is noise
// injected into it. The invariant suite keys on that separation
// (role-partition stays exact; crawl-identity-purity detects sybils in
// crawls precisely because they are not in the actor registry).

import (
	"net/netip"

	"tcsb/internal/dht"
	"tcsb/internal/ids"
	"tcsb/internal/ipdb"
	"tcsb/internal/netsim"
)

// Attack parameter defaults, applied by AttackConfig.WithDefaults when
// the corresponding field is zero. internal/attack's parameter grammar
// takes omitted keys from WithDefaults.
const (
	// DefaultAttackBand is the minimum common-prefix length (bits)
	// between a sybil's key and its target CID's key. With it well above
	// log2 of any realistic server population, every sybil is closer to
	// the target than every honest node.
	DefaultAttackBand = 16
	// DefaultSybilsPerTarget exceeds the resolver-set size K, so a
	// captured lookup horizon can consist entirely of sybils.
	DefaultSybilsPerTarget = 24
	// DefaultAttackTargets is how many CIDs (the head of the persistent
	// catalogue) the attack aims at.
	DefaultAttackTargets = 3
	// DefaultSpamPerTick is the number of distinct spam CIDs the
	// provider-spam attack advertises per tick.
	DefaultSpamPerTick = 12
	// DefaultStampedePerTick is the number of gateway requests for
	// target CIDs the stampede issues per tick.
	DefaultStampedePerTick = 30
	// DefaultPoisonCIDs is how many targets get poisoned gateway cache
	// entries.
	DefaultPoisonCIDs = 2
	// spamFanout is how many resolvers each spam CID is advertised to.
	spamFanout = 4
	// spamCIDBase offsets spam CID seeds into a half-space the catalogue
	// allocator (nextCID: seed<<32 + cidSeq) can never reach.
	spamCIDBase = uint64(1) << 31
)

// WithDefaults returns the config with zero parameters replaced by the
// family defaults. Switch fields are untouched.
func (a AttackConfig) WithDefaults() AttackConfig {
	if a.Band == 0 {
		a.Band = DefaultAttackBand
	}
	if a.SybilsPerTarget == 0 {
		a.SybilsPerTarget = DefaultSybilsPerTarget
	}
	if a.Targets == 0 {
		a.Targets = DefaultAttackTargets
	}
	if a.SpamPerTick == 0 {
		a.SpamPerTick = DefaultSpamPerTick
	}
	if a.StampedePerTick == 0 {
		a.StampedePerTick = DefaultStampedePerTick
	}
	if a.PoisonCIDs == 0 {
		a.PoisonCIDs = DefaultPoisonCIDs
	}
	return a
}

// sybilSwarm is the protocol surface of one target's sybil cohort: a
// single stateless netsim.Handler shared by every sybil of that target.
// It answers every FindNode/GetProviders with the full cohort — one
// learned sybil is enough to pull a walk into the swarm — and
// black-holes AddProvider and Bitswap. All methods are pure functions
// of the immutable cohort, so concurrent phase lanes never race on it.
type sybilSwarm struct {
	cohort []ids.PeerID
}

func (s *sybilSwarm) HandleFindNode(env *netsim.Effects, from ids.PeerID, target ids.Key, closer []ids.PeerID) []ids.PeerID {
	return append(closer, s.cohort...)
}

func (s *sybilSwarm) HandleGetProviders(env *netsim.Effects, from ids.PeerID, c ids.CID, recs []netsim.ProviderRecord, closer []ids.PeerID) ([]netsim.ProviderRecord, []ids.PeerID) {
	// No records, ever: the swarm's goal is to absorb the lookup.
	return recs, append(closer, s.cohort...)
}

func (s *sybilSwarm) HandleAddProvider(env *netsim.Effects, from ids.PeerID, c ids.CID, rec netsim.ProviderRecord) {
	// Black hole: records advertised to a sybil are silently dropped.
}

func (s *sybilSwarm) HandleBitswapWant(env *netsim.Effects, from ids.PeerID, c ids.CID) bool {
	return false
}

// LaunchAttacks performs the one-time setup of every attack switched on
// in Cfg.Attack: target selection, sybil minting and table flooding
// (eclipse/censorship), gateway cache poisoning (stampede), and the
// censorship outage. Sustained attack traffic (spam, stampede requests)
// runs per tick in stepAttackTraffic once the switches are on.
// Idempotent per facet, so composed attack.* interventions and repeated
// timeline firings never double-build a swarm. Serial-path only.
func (w *World) LaunchAttacks() {
	ac := w.Cfg.Attack
	if !ac.Any() {
		return
	}
	w.ensureAttackTargets()
	if (ac.Eclipse || ac.Censor) && len(w.attackers) == 0 {
		w.launchEclipse()
	}
	if ac.Censor {
		w.censorTargets()
	}
	if ac.Stampede {
		w.poisonGateways()
	}
}

// ensureAttackTargets pins the targeted CIDs: the head of the
// persistent catalogue (platform content is seeded first, so targets
// are the highest-value, never-expiring CIDs).
func (w *World) ensureAttackTargets() {
	if len(w.attackTargets) > 0 {
		return
	}
	w.attackTargets = w.defaultAttackTargets()
}

// defaultAttackTargets derives the target set without mutating the
// world (accessors use it so baseline checks are never vacuous).
func (w *World) defaultAttackTargets() []ids.CID {
	n := w.Cfg.Attack.WithDefaults().Targets
	out := make([]ids.CID, 0, n)
	for i := range w.catalog {
		if w.catalog[i].persistent {
			out = append(out, w.catalog[i].cid)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// launchEclipse mints each target's sybil cohort and floods the
// resolver-neighbourhood routing tables with it.
//
// Sybil keys share at least Band prefix bits with their target, so with
// Band far above log2(population) every sybil is XOR-closer to the
// target than every honest server: once a walk hears about one sybil it
// queries it (sybils are reachable — a dead ghost would just be marked
// failed and skipped), receives the whole cohort, and converges on a
// horizon of sybils. Honest resolvers still hold the true records and
// still answer the paper's exhaustive collector from its honest seed
// set, which is why the eclipse contract expects resolver-horizon
// capture but NOT the death of targeted provider records.
func (w *World) launchEclipse() {
	ac := w.Cfg.Attack.WithDefaults()
	now := w.Net.Clock.Now()
	if w.attackerSet == nil {
		w.attackerSet = make(map[ids.PeerID]bool)
	}
	for ti, c := range w.attackTargets {
		target := c.Key()
		swarm := &sybilSwarm{}
		for i := 0; i < ac.SybilsPerTarget; i++ {
			// Deterministic sybil key: the target's first Band bits, the
			// mix key's remainder.
			mix := ids.KeyFromUint64(uint64(w.Cfg.Seed)<<32 | uint64(ti)<<16 | uint64(i))
			k := target
			for b := ac.Band; b < ids.KeyBits; b++ {
				k = k.WithBit(b, mix.Bit(b))
			}
			id := ids.PeerIDFromKey(k)
			swarm.cohort = append(swarm.cohort, id)
			// Sybils are ordinary rented cloud machines: dialable, with
			// allocator-assigned addresses (crawls that discover them must
			// resolve them to IPs like any real peer).
			ip := w.Alloc.CloudIP(ipdb.Choopa, "")
			w.Net.Attach(id, swarm, netsim.HostConfig{
				Reachable: true,
				Addrs:     addrList(ip),
				LinkClass: netsim.LinkCloud,
			})
			w.attackers = append(w.attackers, id)
			w.attackerSet[id] = true
		}
		// Flood: the servers nearest the target force-learn the cohort
		// (LearnPeer is the oracle-fill path — real tables admit new
		// contacts on inbound traffic, which the swarm can generate at
		// will; the shortcut keeps the launch deterministic and cheap).
		for _, p := range w.nearestServers(target, 4*dht.K) {
			a := w.Actors[p]
			if a == nil {
				continue // hydra heads keep their own tables
			}
			for _, s := range swarm.cohort {
				a.Node.LearnPeer(s, now)
			}
		}
	}
}

// censorTargets is the outage half of targeted censorship: the platform
// cluster owning each target CID is pinned offline permanently, so the
// true records age out while the eclipse absorbs lookups.
func (w *World) censorTargets() {
	for _, c := range w.attackTargets {
		owner, _, _, ok := w.ContentInfo(c)
		if !ok {
			continue
		}
		oa := w.Actors[owner]
		if oa == nil {
			continue
		}
		if oa.Platform == "" {
			w.pinActorOffline(oa)
			continue
		}
		for _, id := range w.order {
			if a := w.Actors[id]; a != nil && a.Platform == oa.Platform {
				w.pinActorOffline(a)
			}
		}
	}
}

// pinActorOffline takes one actor down for good (idempotent).
func (w *World) pinActorOffline(a *Actor) {
	a.PinnedOffline = true
	if a.Online {
		a.Online = false
		w.Net.SetOnline(a.ID, false)
	}
}

// poisonGateways plants poisoned cache entries for the first PoisonCIDs
// targets at every public gateway (idempotent).
func (w *World) poisonGateways() {
	ac := w.Cfg.Attack.WithDefaults()
	n := ac.PoisonCIDs
	if n > len(w.attackTargets) {
		n = len(w.attackTargets)
	}
	for _, gw := range w.Gateways {
		for _, c := range w.attackTargets[:n] {
			gw.Poison(c)
		}
	}
}

// SpammerID is the provider identity the spam attack advertises. It is
// never attached to the network: AddProvider needs only a dialable
// *target*, and an undialable, never-learned spammer is exactly how the
// records stay out of every crawl while still landing in the ledgers.
func (w *World) SpammerID() ids.PeerID {
	return ids.PeerIDFromSeed(uint64(w.Cfg.Seed)<<48 + 0x5eaa)
}

// stepAttackTraffic is the per-tick adversarial phase: provider-record
// spam and the gateway stampede. It runs serially after the hydra
// drains (phase 5) and consumes no randomness — every draw is tick
// arithmetic — so attacked evolutions stay byte-identical across
// worker counts.
func (w *World) stepAttackTraffic() {
	if !w.Cfg.Attack.Any() {
		return
	}
	ac := w.Cfg.Attack.WithDefaults()
	if ac.Spam {
		w.stepSpam(ac)
	}
	if ac.Stampede {
		w.stepStampede(ac)
	}
}

// stepSpam floods resolvers with records for synthetic CIDs. Spam CID
// seeds live at spamCIDBase + tick*rate + i — a pure function of the
// tick, disjoint from the catalogue's seed space — and each is
// advertised to a few of its true resolvers, which dutifully store,
// refresh-detect and eventually expire the junk (the ledger stress the
// contract measures via spam-quiescence).
func (w *World) stepSpam(ac AttackConfig) {
	spammer := w.SpammerID()
	rec := netsim.ProviderRecord{Provider: netsim.PeerInfo{
		ID:    spammer,
		Addrs: addrList(netip.AddrFrom4([4]byte{198, 51, 100, 66})),
	}}
	for i := 0; i < ac.SpamPerTick; i++ {
		idx := uint64(w.tick)*uint64(ac.SpamPerTick) + uint64(i)
		c := ids.CIDFromSeed(uint64(w.Cfg.Seed)<<32 + spamCIDBase + idx)
		resolvers := w.resolversFor(c)
		if len(resolvers) > spamFanout {
			resolvers = resolvers[:spamFanout]
		}
		for _, r := range resolvers {
			w.Net.AddProvider(nil, spammer, r, c, rec)
		}
	}
}

// stepStampede issues the hot-CID request surge: StampedePerTick HTTP
// fetches of target CIDs, rotating over targets and gateways. Poisoned
// entries answer from the cache (counting PoisonedServed); unpoisoned
// targets are retrieved once per gateway and served from cache after.
func (w *World) stepStampede(ac AttackConfig) {
	if len(w.attackTargets) == 0 || len(w.Gateways) == 0 {
		return
	}
	for i := 0; i < ac.StampedePerTick; i++ {
		idx := w.tick*ac.StampedePerTick + i
		gw := w.Gateways[idx%len(w.Gateways)]
		c := w.attackTargets[idx%len(w.attackTargets)]
		gw.FetchHTTP(nil, c, w.Net.Online)
	}
}

// --- Attack observation surface (pure reads + serial-path probes) ---

// AttackTargets returns the targeted CIDs: the pinned set once an
// attack has launched, or the set an attack *would* target otherwise —
// so baseline attack-surface checks are never vacuous.
func (w *World) AttackTargets() []ids.CID {
	if len(w.attackTargets) > 0 {
		return append([]ids.CID(nil), w.attackTargets...)
	}
	return w.defaultAttackTargets()
}

// AttackerIDs returns the minted sybil identities in creation order.
func (w *World) AttackerIDs() []ids.PeerID {
	return append([]ids.PeerID(nil), w.attackers...)
}

// IsAttacker reports whether p is a minted attacker identity.
func (w *World) IsAttacker(p ids.PeerID) bool { return w.attackerSet[p] }

// SpamRecordTotal counts unexpired provider records across every actor
// whose provider is the spammer identity — zero in any world the spam
// attack has not touched. Pure read.
func (w *World) SpamRecordTotal() int {
	spammer := w.SpammerID()
	total := 0
	for _, id := range w.order {
		if a := w.Actors[id]; a != nil {
			total += a.Node.ProviderRecordsFrom(spammer)
		}
	}
	return total
}

// PoisonedServedTotal sums the poisoned-response counters of every
// gateway — zero unless a stampede has both poisoned caches and driven
// requests into them. Pure read.
func (w *World) PoisonedServedTotal() int64 {
	var total int64
	for _, gw := range w.Gateways {
		total += gw.PoisonedServed
	}
	return total
}

// SybilResolverEntries counts attacker identities among the K-nearest
// table entries of the target's resolver neighbourhood — the pure-read
// eclipse depth the experiment rows report (probe walks stay on the
// invariant suite's serial path).
func (w *World) SybilResolverEntries(c ids.CID) int {
	total := 0
	for _, p := range w.nearestServers(c.Key(), 2*dht.K) {
		a := w.Actors[p]
		if a == nil {
			continue
		}
		for _, q := range a.Node.RoutingTable().AppendNearest(nil, c.Key(), dht.K) {
			if w.IsAttacker(q) {
				total++
			}
		}
	}
	return total
}

// PublisherBacks reports whether c's publisher still backs it: some
// store holds an unexpired record for c naming an online member of the
// owner's platform cluster (or the owner itself for non-platform
// content). User re-providers deliberately don't count — the question
// is whether the publisher can be censored away, not whether stray
// copies survive. Pure read.
func (w *World) PublisherBacks(c ids.CID, owner ids.PeerID) bool {
	platform := ""
	if oa := w.Actors[owner]; oa != nil {
		platform = oa.Platform
	}
	for _, id := range w.order {
		a := w.Actors[id]
		if a == nil {
			continue
		}
		for _, rec := range a.Node.ProvidersOf(c) {
			pa := w.Actors[rec.Provider.ID]
			if pa == nil || !pa.Online {
				continue
			}
			if platform != "" {
				if pa.Platform == platform {
					return true
				}
			} else if rec.Provider.ID == owner {
				return true
			}
		}
	}
	return false
}
