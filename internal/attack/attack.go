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

// paramKeys is the grammar vocabulary in canonical render order, each
// key bound to the scenario.AttackConfig parameter it sets. Every
// attack.* intervention reads the same six parameters from
// Config.Attack, and the CLI's -attack-params flag sets them globally.
var paramKeys = []struct {
	key      string
	min, max int
	field    func(*scenario.AttackConfig) *int
}{
	{"band", MinBand, MaxBand, func(a *scenario.AttackConfig) *int { return &a.Band }},
	{"sybils", MinSybils, MaxSybils, func(a *scenario.AttackConfig) *int { return &a.SybilsPerTarget }},
	{"targets", MinTargets, MaxTargets, func(a *scenario.AttackConfig) *int { return &a.Targets }},
	{"spam", MinSpam, MaxSpam, func(a *scenario.AttackConfig) *int { return &a.SpamPerTick }},
	{"stampede", MinStampede, MaxStampede, func(a *scenario.AttackConfig) *int { return &a.StampedePerTick }},
	{"poison", MinPoison, MaxPoison, func(a *scenario.AttackConfig) *int { return &a.PoisonCIDs }},
}

// Parse reads an attack parameter spec: semicolon-separated key=value
// clauses over the keys band, sybils, targets, spam, stampede, poison.
// Whitespace around clauses, keys and values is ignored; empty clauses
// are skipped; omitted keys take the defaults of
// scenario.AttackConfig.WithDefaults; duplicate and unknown keys are
// errors. The empty spec is valid and means all-defaults. The result
// carries the six parameters only, every attack switched off. An
// accepted spec always satisfies Validate, and Spec renders a
// canonical form that re-parses to an equal AttackConfig — the same
// fixed-point property FuzzParseSchedule pins for timeline specs.
func Parse(spec string) (scenario.AttackConfig, error) {
	a := scenario.AttackConfig{}.WithDefaults()
	seen := make(map[string]bool)
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, found := strings.Cut(clause, "=")
		if !found {
			return scenario.AttackConfig{}, fmt.Errorf("attack params: clause %q is not key=value", clause)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		ent := lookupKey(key)
		if ent < 0 {
			return scenario.AttackConfig{}, fmt.Errorf("attack params: unknown key %q (known: %s)",
				key, strings.Join(keyNames(), ", "))
		}
		if seen[key] {
			return scenario.AttackConfig{}, fmt.Errorf("attack params: duplicate key %q", key)
		}
		seen[key] = true
		n, err := strconv.Atoi(val)
		if err != nil {
			return scenario.AttackConfig{}, fmt.Errorf("attack params: %s=%q is not an integer", key, val)
		}
		*paramKeys[ent].field(&a) = n
	}
	if err := Validate(a); err != nil {
		return scenario.AttackConfig{}, err
	}
	return a, nil
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

// Validate checks every parameter of a against its bounds; the attack
// switches are not checked.
func Validate(a scenario.AttackConfig) error {
	for i := range paramKeys {
		ent := &paramKeys[i]
		v := *ent.field(&a)
		if v < ent.min || v > ent.max {
			return fmt.Errorf("attack params: %s=%d outside [%d, %d]", ent.key, v, ent.min, ent.max)
		}
	}
	return nil
}

// Spec renders the canonical spec of a's parameters: every key, fixed
// order, no spaces. Parse(Spec(a)) returns a's parameters for any a
// that satisfies Validate.
func Spec(a scenario.AttackConfig) string {
	parts := make([]string, len(paramKeys))
	for i := range paramKeys {
		parts[i] = paramKeys[i].key + "=" + strconv.Itoa(*paramKeys[i].field(&a))
	}
	return strings.Join(parts, ";")
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
