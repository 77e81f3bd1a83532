// Package attack is the adversarial scenario family: four composable
// attack.* interventions registered alongside the counterfactual
// outages, each with an invariant contract declaring what it must break
// and what it must leave intact.
//
// Where the counterfactual family asks "what if this infrastructure
// disappeared", the attack family asks "what can an adversary do with
// the concentration the paper measured": eclipse the resolver
// neighbourhood of the most valuable CIDs with a rented sybil swarm,
// flood provider-record ledgers, stampede the gateways with poisoned
// hot content, or censor a platform's content outright. Every attack
// threads through the same hooks as the outages — a Config rewrite
// plus a World mutation — so each works under -what-if paired runs AND
// as a scheduled @E:attack.* timeline epoch, and inherits the engine's
// byte-identical-across-Workers guarantee.
//
// The contracts are the executable threat model and live with the
// invariant suite (internal/simtest/invariants.Contracts), which
// production code never imports: the suite asserts each attack breaks
// exactly the attack-surface invariants it targets — an expected
// breakage that fails to appear fails the suite, so an attack can
// never silently no-op (the ConstructionOnly bug class).
package attack

import (
	"fmt"
	"strconv"
	"strings"

	"tcsb/internal/counterfactual"
	"tcsb/internal/scenario"
)

// Params is the attack parameter set behind the shared grammar: every
// attack.* intervention reads the same six knobs from Config.Attack,
// and the CLI's -attack-params flag sets them globally. The zero value
// is not meaningful — construct via Defaults or Parse.
type Params struct {
	Band     int // min common-prefix bits shared by sybil keys and their target
	Sybils   int // sybil identities minted per target CID
	Targets  int // targeted CIDs (head of the persistent catalogue)
	Spam     int // distinct spam CIDs advertised per tick
	Stampede int // gateway requests for target CIDs per tick
	Poison   int // target CIDs with poisoned gateway cache entries
}

// Parameter bounds enforced by Validate. Band is capped at 64 because
// the sybil key mix occupies the low word; the cap keeps every minted
// key unique per (seed, target, index).
const (
	MinBand, MaxBand         = 4, 64
	MinSybils, MaxSybils     = 1, 512
	MinTargets, MaxTargets   = 1, 64
	MinSpam, MaxSpam         = 0, 1000
	MinStampede, MaxStampede = 0, 1000
	MinPoison, MaxPoison     = 0, 64
)

// Defaults returns the family defaults (the values a zero
// scenario.AttackConfig resolves to).
func Defaults() Params {
	return Params{
		Band:     scenario.DefaultAttackBand,
		Sybils:   scenario.DefaultSybilsPerTarget,
		Targets:  scenario.DefaultAttackTargets,
		Spam:     scenario.DefaultSpamPerTick,
		Stampede: scenario.DefaultStampedePerTick,
		Poison:   scenario.DefaultPoisonCIDs,
	}
}

// paramKeys is the grammar vocabulary in canonical render order, each
// bound to its Params field.
var paramKeys = []struct {
	key      string
	min, max int
	field    func(*Params) *int
}{
	{"band", MinBand, MaxBand, func(p *Params) *int { return &p.Band }},
	{"sybils", MinSybils, MaxSybils, func(p *Params) *int { return &p.Sybils }},
	{"targets", MinTargets, MaxTargets, func(p *Params) *int { return &p.Targets }},
	{"spam", MinSpam, MaxSpam, func(p *Params) *int { return &p.Spam }},
	{"stampede", MinStampede, MaxStampede, func(p *Params) *int { return &p.Stampede }},
	{"poison", MinPoison, MaxPoison, func(p *Params) *int { return &p.Poison }},
}

// Parse reads an attack parameter spec: semicolon-separated key=value
// clauses over the keys band, sybils, targets, spam, stampede, poison.
// Whitespace around clauses, keys and values is ignored; empty clauses
// are skipped; omitted keys take their defaults; duplicate and unknown
// keys are errors. The empty spec is valid and means all-defaults. An
// accepted spec always satisfies Validate, and String renders a
// canonical form that re-parses to a deeply equal Params — the same
// fixed-point property FuzzParseSchedule pins for timeline specs.
func Parse(spec string) (Params, error) {
	p := Defaults()
	seen := make(map[string]bool)
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, found := strings.Cut(clause, "=")
		if !found {
			return Params{}, fmt.Errorf("attack params: clause %q is not key=value", clause)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		ent := lookupKey(key)
		if ent < 0 {
			return Params{}, fmt.Errorf("attack params: unknown key %q (known: %s)",
				key, strings.Join(keyNames(), ", "))
		}
		if seen[key] {
			return Params{}, fmt.Errorf("attack params: duplicate key %q", key)
		}
		seen[key] = true
		n, err := strconv.Atoi(val)
		if err != nil {
			return Params{}, fmt.Errorf("attack params: %s=%q is not an integer", key, val)
		}
		*paramKeys[ent].field(&p) = n
	}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}

func lookupKey(key string) int {
	for i := range paramKeys {
		if paramKeys[i].key == key {
			return i
		}
	}
	return -1
}

func keyNames() []string {
	out := make([]string, len(paramKeys))
	for i := range paramKeys {
		out[i] = paramKeys[i].key
	}
	return out
}

// Validate checks every parameter against its bounds.
func (p Params) Validate() error {
	for i := range paramKeys {
		ent := &paramKeys[i]
		v := *ent.field(&p)
		if v < ent.min || v > ent.max {
			return fmt.Errorf("attack params: %s=%d outside [%d, %d]", ent.key, v, ent.min, ent.max)
		}
	}
	return nil
}

// String renders the canonical spec: every key, fixed order, no spaces.
// Parse(p.String()) == p for any valid p.
func (p Params) String() string {
	parts := make([]string, len(paramKeys))
	for i := range paramKeys {
		parts[i] = paramKeys[i].key + "=" + strconv.Itoa(*paramKeys[i].field(&p))
	}
	return strings.Join(parts, ";")
}

// Apply writes the parameters into a scenario config's attack block
// (switches untouched — the interventions flip those).
func (p Params) Apply(c *scenario.Config) {
	c.Attack.Band = p.Band
	c.Attack.SybilsPerTarget = p.Sybils
	c.Attack.Targets = p.Targets
	c.Attack.SpamPerTick = p.Spam
	c.Attack.StampedePerTick = p.Stampede
	c.Attack.PoisonCIDs = p.Poison
}

// The four attacks, in registration order.
var family = []counterfactual.Intervention{
	{
		Name: "attack.sybil-eclipse",
		Description: "rented sybil swarms minted in a keyspace band around the most " +
			"valuable CIDs flood the resolver-neighbourhood routing tables and " +
			"capture the lookup horizon",
		Rewrite: func(c *scenario.Config) { c.Attack.Eclipse = true },
		Mutate:  launch,
	},
	{
		Name: "attack.provider-spam",
		Description: "an unreachable spammer identity floods resolvers with provider " +
			"records for synthetic CIDs, stressing the Created/Pruned/Stored expiry ledger",
		Rewrite: func(c *scenario.Config) { c.Attack.Spam = true },
		Mutate:  launch,
	},
	{
		Name: "attack.gateway-stampede",
		Description: "hot-CID request surges hammer the public gateways while poisoned " +
			"cache entries for the targets serve attacker-controlled bytes",
		Rewrite: func(c *scenario.Config) { c.Attack.Stampede = true },
		Mutate:  launch,
	},
	{
		Name: "attack.targeted-censorship",
		Description: "the composite: a sybil eclipse absorbs lookups for the targets " +
			"while the platform cluster publishing them is taken down for good",
		Rewrite: func(c *scenario.Config) { c.Attack.Censor = true },
		Mutate:  launch,
	},
}

// launch is the shared Mutate: by the time it runs, every composed
// attack's Rewrite has flipped its switch, and LaunchAttacks is
// idempotent per facet — so "attack.sybil-eclipse,attack.provider-spam"
// calling it twice builds one swarm, not two.
func launch(w *scenario.World) { w.LaunchAttacks() }

func init() {
	for _, iv := range family {
		counterfactual.Register(iv)
	}
}
