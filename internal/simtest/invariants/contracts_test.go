package invariants

// Attack-surface invariants and the contract harness for the attack.*
// scenario family (internal/attack). Where CheckWorld asserts laws that
// survive every intervention, the attack-surface checks are exactly the
// laws an attack is *supposed* to break: each attack has a contract
// naming the checks it must break and the checks it must leave intact,
// and EvaluateContract turns "expected to break" into an assertion —
// a breakage that fails to appear is a failure (the attack no-op'd),
// not a pass. The contracts live here, not in internal/attack, so no
// production package imports the invariant suite. attack_test.go, an
// external test package, drives them.

import (
	"sort"

	"tcsb/internal/dht"
	"tcsb/internal/ids"
	"tcsb/internal/scenario"
)

// The attack-surface invariant names. The attack contracts reference
// these; keeping them as constants pins the vocabulary.
const (
	// InvResolverHorizon: no attacker identity appears in the K-closest
	// horizon a neutral DHT walk converges on for any targeted CID — the
	// resolver set an ordinary client would trust.
	InvResolverHorizon = "resolver-horizon-purity"
	// InvCrawlPurity: a fresh crawl of the network discovers no
	// adversarial identities (sybils or the spammer).
	InvCrawlPurity = "crawl-identity-purity"
	// InvSpamQuiescence: no provider record anywhere names the spammer
	// identity as provider.
	InvSpamQuiescence = "spam-quiescence"
	// InvGatewayIntegrity: no gateway has served a response from a
	// poisoned cache entry.
	InvGatewayIntegrity = "gateway-response-integrity"
	// InvTargetLiveness: every targeted CID is still backed by its
	// publisher — at least one unexpired provider record names an online
	// member of the owning platform cluster (or the owner itself for
	// non-platform content). User re-providers don't count: the check
	// asks whether the *publisher* can still be censored away.
	InvTargetLiveness = "targeted-provider-liveness"
)

// Contract is one attack's invariant contract: the attack-surface
// invariants (CheckAttackSurface) it must break and the ones it must
// leave intact. The suite asserts both directions — see
// EvaluateContract.
type Contract struct {
	// Attack is the intervention name, e.g. "attack.sybil-eclipse".
	Attack string
	// MustBreak are invariants the attack exists to violate; the suite
	// fails if any of them holds (the attack silently no-op'd).
	MustBreak []string
	// MustHold are invariants the attack must not collaterally damage.
	MustHold []string
}

// contracts lists one contract per attack.* intervention, in
// internal/attack's registration order (TestContractVocabulary pins
// the correspondence).
var contracts = []Contract{
	{
		Attack:    "attack.sybil-eclipse",
		MustBreak: []string{InvResolverHorizon, InvCrawlPurity},
		MustHold:  []string{InvSpamQuiescence, InvGatewayIntegrity, InvTargetLiveness},
	},
	{
		Attack:    "attack.provider-spam",
		MustBreak: []string{InvSpamQuiescence},
		MustHold:  []string{InvResolverHorizon, InvCrawlPurity, InvGatewayIntegrity, InvTargetLiveness},
	},
	{
		Attack:    "attack.gateway-stampede",
		MustBreak: []string{InvGatewayIntegrity},
		MustHold:  []string{InvResolverHorizon, InvCrawlPurity, InvSpamQuiescence, InvTargetLiveness},
	},
	{
		Attack:    "attack.targeted-censorship",
		MustBreak: []string{InvResolverHorizon, InvCrawlPurity, InvTargetLiveness},
		MustHold:  []string{InvSpamQuiescence, InvGatewayIntegrity},
	},
}

// Contracts returns every attack's invariant contract, in registration
// order, with the lists sorted for stable comparison.
func Contracts() []Contract {
	out := make([]Contract, len(contracts))
	for i, c := range contracts {
		c.MustBreak = append([]string(nil), c.MustBreak...)
		c.MustHold = append([]string(nil), c.MustHold...)
		sort.Strings(c.MustBreak)
		sort.Strings(c.MustHold)
		out[i] = c
	}
	return out
}

// ContractFor returns the contract of the named attack.
func ContractFor(name string) (Contract, bool) {
	for _, c := range Contracts() {
		if c.Attack == name {
			return c, true
		}
	}
	return Contract{}, false
}

// attackProbeCrawlID labels the fresh crawl CheckAttackSurface runs
// (well clear of the campaign's daily crawl IDs).
const attackProbeCrawlID = 1 << 20

// CheckAttackSurface verifies the adversarial-pressure invariants on a
// world. On a clean world every check holds; under an attack.*
// intervention the attack's contract says which must break. The horizon
// and crawl checks run live probes (an unattached walker identity and a
// fresh crawl), so this must be called from the serial path, like
// Snapshot — and unlike CheckWorld it advances RPC counters, so callers
// comparing snapshots across runs must account for that.
func CheckAttackSurface(w *scenario.World) []Violation {
	var vs violations
	targets := w.AttackTargets()
	spammer := w.SpammerID()

	// resolver-horizon-purity: walk toward each target from honest seeds.
	for _, c := range targets {
		for _, p := range lookupClosest(w, c.Key()) {
			if w.IsAttacker(p) {
				vs.addf(InvResolverHorizon, "target %s: attacker %s in the lookup horizon",
					c, p.String())
				break
			}
		}
	}

	// crawl-identity-purity: fresh crawl, census the discovered set.
	snap := w.Crawl(attackProbeCrawlID)
	adversarial := 0
	for _, o := range snap.Peers {
		if w.IsAttacker(o.Peer) || o.Peer == spammer {
			adversarial++
		}
	}
	if adversarial > 0 {
		vs.addf(InvCrawlPurity, "crawl discovered %d adversarial identities among %d peers",
			adversarial, snap.Discovered())
	}

	// spam-quiescence: no store holds a record naming the spammer.
	if n := w.SpamRecordTotal(); n > 0 {
		vs.addf(InvSpamQuiescence, "%d live provider records name the spammer %s",
			n, spammer.String())
	}

	// gateway-response-integrity: poisoned cache entries served.
	if n := w.PoisonedServedTotal(); n > 0 {
		vs.addf(InvGatewayIntegrity, "gateways served %d responses from poisoned cache entries", n)
	}

	// targeted-provider-liveness: the publisher still backs each target.
	for _, c := range targets {
		owner, _, _, ok := w.ContentInfo(c)
		if !ok {
			vs.addf(InvTargetLiveness, "target %s is not in the catalogue", c)
			continue
		}
		if !w.PublisherBacks(c, owner) {
			vs.addf(InvTargetLiveness, "target %s: no online publisher-cluster record remains", c)
		}
	}

	return vs
}

// lookupClosest runs a neutral GetClosestPeers probe toward target from
// honest ring seeds and returns the K-closest horizon the walk
// converged on — the view an ordinary client resolving the key would
// act on. The probe identity is never attached, so nothing learns it;
// the walk's only side effect is the RPC counters. Serial path only.
func lookupClosest(w *scenario.World, target ids.Key) []ids.PeerID {
	probe := ids.PeerIDFromSeed(uint64(w.Cfg.Seed)<<48 + 0xa11ce)
	walker := dht.NewWalker(w.Net, probe)
	infos := walker.GetClosestPeers(nil, w.SeedsNear(target, 8), target)
	out := make([]ids.PeerID, len(infos))
	for i, pi := range infos {
		out[i] = pi.ID
	}
	return out
}

// EvaluateContract checks a violation set against an attack's contract:
// every invariant in mustBreak needs at least one violation (an attack
// that fails to break what it attacks has silently no-op'd — the
// ConstructionOnly bug class), and no invariant in mustHold may have
// any. The returned strings are the contract failures, empty on
// conformance. Invariants in neither list are unconstrained.
func EvaluateContract(vs []Violation, mustBreak, mustHold []string) []string {
	broken := make(map[string][]Violation)
	for _, v := range vs {
		broken[v.Invariant] = append(broken[v.Invariant], v)
	}
	var failures []string
	for _, name := range mustBreak {
		if len(broken[name]) == 0 {
			failures = append(failures,
				"invariant "+name+" was expected to break but held (attack no-op?)")
		}
	}
	for _, name := range mustHold {
		for _, v := range broken[name] {
			failures = append(failures, "invariant "+name+" was expected to hold but broke: "+v.Detail)
		}
	}
	return failures
}
