package invariants_test

// The attack-contract suite: every attack.* intervention must break
// exactly the attack-surface invariants its contract names — in what-if
// worlds, in composed what-if worlds, and as scheduled timeline epochs
// — and the harness itself must fail when an expected breakage does not
// appear (the negative path).

import (
	"fmt"
	"strings"
	"testing"

	_ "tcsb/internal/attack" // registers the attack.* interventions
	"tcsb/internal/core"
	"tcsb/internal/counterfactual"
	"tcsb/internal/scenario"
	"tcsb/internal/simtest/campaign"
	"tcsb/internal/simtest/invariants"
)

const contractSeeds = 5

// buildAttackWorld builds the intervention world for one attack spec
// and evolves it one simulated day on two workers (enough for every
// sustained attack to bite, and a concurrency exercise under -race).
func buildAttackWorld(t *testing.T, seed int64, spec string) *scenario.World {
	t.Helper()
	ivs, err := counterfactual.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := counterfactual.BuildWorld(campaign.SmallConfig(seed), ivs)
	w.Workers = 2
	for tick := 0; tick < scenario.TicksPerDay; tick++ {
		w.StepTick()
	}
	return w
}

func assertContract(t *testing.T, label string, w *scenario.World, c invariants.Contract) {
	t.Helper()
	vs := invariants.CheckAttackSurface(w)
	for _, f := range invariants.EvaluateContract(vs, c.MustBreak, c.MustHold) {
		t.Errorf("%s: %s", label, f)
	}
}

// TestAttackSurfaceBaseline pins the other half of every contract: on a
// clean world each attack-surface invariant holds, so a breakage under
// attack is attributable to the attack alone.
func TestAttackSurfaceBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("evolves worlds")
	}
	for seed := int64(1); seed <= contractSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			w := scenario.NewWorld(campaign.SmallConfig(seed))
			w.Workers = 2
			for tick := 0; tick < scenario.TicksPerDay; tick++ {
				w.StepTick()
			}
			for _, v := range invariants.CheckAttackSurface(w) {
				t.Errorf("baseline: %s", v)
			}
		})
	}
}

// TestAttackContracts enforces every attack's invariant contract on
// what-if worlds across seeds 1-5: the MustBreak invariants must all
// produce violations, the MustHold invariants none.
func TestAttackContracts(t *testing.T) {
	if testing.Short() {
		t.Skip("evolves worlds")
	}
	for _, c := range invariants.Contracts() {
		c := c
		t.Run(c.Attack, func(t *testing.T) {
			for seed := int64(1); seed <= contractSeeds; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					t.Parallel()
					w := buildAttackWorld(t, seed, c.Attack)
					assertContract(t, c.Attack, w, c)
				})
			}
		})
	}
}

// TestAttackContractsComposed stacks three attacks in one world; the
// composed contract is the union of breakages, and only the invariants
// no constituent attacks may hold.
func TestAttackContractsComposed(t *testing.T) {
	if testing.Short() {
		t.Skip("evolves a world")
	}
	spec := "attack.sybil-eclipse,attack.provider-spam,attack.gateway-stampede"
	composed := invariants.Contract{
		Attack: spec,
		MustBreak: []string{invariants.InvResolverHorizon, invariants.InvCrawlPurity,
			invariants.InvSpamQuiescence, invariants.InvGatewayIntegrity},
		MustHold: []string{invariants.InvTargetLiveness},
	}
	w := buildAttackWorld(t, 3, spec)
	assertContract(t, spec, w, composed)
	// The eclipse guard must have built exactly one swarm despite the
	// shared Mutate firing once per constituent.
	ac := w.Cfg.Attack.WithDefaults()
	if got, want := len(w.AttackerIDs()), ac.SybilsPerTarget*ac.Targets; got != want {
		t.Errorf("composed launch minted %d sybils, want %d (idempotency breach)", got, want)
	}
}

// TestAttackContractsTimeline enforces the contracts when each attack
// fires as a scheduled @E:attack.* epoch: the surface is clean at the
// boundary before the attack epoch and contract-conformant at every
// boundary after it. (The probes inside the hook advance RPC counters,
// so this run's snapshots are not comparable to a hook-free run's —
// TestTimelineWorkerDeterminism compares those.)
func TestAttackContractsTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs timelines")
	}
	rc := campaign.SmallRunConfig()
	rc.Workers = 2
	for _, c := range invariants.Contracts() {
		c := c
		t.Run(c.Attack, func(t *testing.T) {
			t.Parallel()
			sch, err := campaign.CompileSchedule("epochs=4;days=1;@2:" + c.Attack)
			if err != nil {
				t.Fatal(err)
			}
			cfg := campaign.SmallConfig(3)
			core.RunTimeline(cfg, rc, sch, core.TimelineOptions{OnEpoch: func(epoch int, w *scenario.World) {
				vs := invariants.CheckAttackSurface(w)
				if epoch < 2 {
					for _, v := range vs {
						t.Errorf("epoch %d (pre-attack): %s", epoch, v)
					}
					return
				}
				for _, f := range invariants.EvaluateContract(vs, c.MustBreak, c.MustHold) {
					t.Errorf("epoch %d: %s", epoch, f)
				}
			}})
		})
	}
}

// TestExpectedBreakMustBreak is the negative path for the harness
// itself: an expected-to-break invariant that unexpectedly holds must
// fail the evaluation — on a real clean world and on fabricated
// violation sets — or attacks could silently no-op forever.
func TestExpectedBreakMustBreak(t *testing.T) {
	// Fabricated: nothing broke, but the contract demands a breakage.
	failures := invariants.EvaluateContract(nil,
		[]string{invariants.InvSpamQuiescence}, nil)
	if len(failures) != 1 || !strings.Contains(failures[0], invariants.InvSpamQuiescence) {
		t.Fatalf("held MustBreak not reported: %v", failures)
	}
	// Fabricated: a MustHold invariant broke.
	vs := []invariants.Violation{{Invariant: invariants.InvCrawlPurity, Detail: "sybil in crawl"}}
	failures = invariants.EvaluateContract(vs, nil, []string{invariants.InvCrawlPurity})
	if len(failures) != 1 || !strings.Contains(failures[0], "sybil in crawl") {
		t.Fatalf("broken MustHold not reported: %v", failures)
	}
	// Both directions at once must yield both failures.
	failures = invariants.EvaluateContract(vs,
		[]string{invariants.InvSpamQuiescence}, []string{invariants.InvCrawlPurity})
	if len(failures) != 2 {
		t.Fatalf("want 2 failures, got %v", failures)
	}
	// Conformant sets pass.
	if f := invariants.EvaluateContract(vs, []string{invariants.InvCrawlPurity}, nil); len(f) != 0 {
		t.Fatalf("conformant evaluation failed: %v", f)
	}
}

// TestExpectedBreakMustBreakOnWorld runs the same guard end to end: a
// clean baseline world evaluated against the eclipse contract must
// fail with one held-but-expected-to-break failure per MustBreak entry.
func TestExpectedBreakMustBreakOnWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world")
	}
	w := scenario.NewWorld(campaign.SmallConfig(1))
	c, ok := invariants.ContractFor("attack.sybil-eclipse")
	if !ok {
		t.Fatal("eclipse contract missing")
	}
	vs := invariants.CheckAttackSurface(w)
	failures := invariants.EvaluateContract(vs, c.MustBreak, c.MustHold)
	if len(failures) != len(c.MustBreak) {
		t.Fatalf("clean world vs eclipse contract: want %d failures, got %v",
			len(c.MustBreak), failures)
	}
	for _, f := range failures {
		if !strings.Contains(f, "expected to break but held") {
			t.Fatalf("failure does not name the held breakage: %q", f)
		}
	}
}

// TestContractVocabulary pins the contract/invariant wiring: the
// contracts match the attack.* registrations one to one, in order, every contract
// names a registered intervention, references only known attack-surface
// invariants, never lists an invariant on both sides, and every attack
// has at least one expected breakage.
func TestContractVocabulary(t *testing.T) {
	known := map[string]bool{
		invariants.InvResolverHorizon:  true,
		invariants.InvCrawlPurity:      true,
		invariants.InvSpamQuiescence:   true,
		invariants.InvGatewayIntegrity: true,
		invariants.InvTargetLiveness:   true,
	}
	contracts := invariants.Contracts()
	if len(contracts) != 4 {
		t.Fatalf("want 4 attack contracts, got %d", len(contracts))
	}
	var names []string
	for _, name := range counterfactual.Names() {
		if strings.HasPrefix(name, "attack.") {
			names = append(names, name)
		}
	}
	if len(names) != len(contracts) {
		t.Fatalf("%d contracts for %d attacks %v", len(contracts), len(names), names)
	}
	for i, c := range contracts {
		if c.Attack != names[i] {
			t.Errorf("contract %d is for %q, want %q (one per attack, in registration order)", i, c.Attack, names[i])
		}
	}
	for _, c := range contracts {
		iv, ok := counterfactual.Lookup(c.Attack)
		if !ok {
			t.Errorf("contract %q names an unregistered intervention", c.Attack)
			continue
		}
		if iv.ConstructionOnly {
			t.Errorf("%s: attacks must be schedulable, not construction-only", c.Attack)
		}
		if iv.Rewrite == nil || iv.Mutate == nil {
			t.Errorf("%s: attacks need both a rewrite (the switch) and a mutate (the launch)", c.Attack)
		}
		if len(c.MustBreak) == 0 {
			t.Errorf("%s: an attack that breaks nothing is not an attack", c.Attack)
		}
		onBreak := make(map[string]bool)
		for _, name := range c.MustBreak {
			if !known[name] {
				t.Errorf("%s: MustBreak references unknown invariant %q", c.Attack, name)
			}
			onBreak[name] = true
		}
		for _, name := range c.MustHold {
			if !known[name] {
				t.Errorf("%s: MustHold references unknown invariant %q", c.Attack, name)
			}
			if onBreak[name] {
				t.Errorf("%s: invariant %q is on both sides of the contract", c.Attack, name)
			}
		}
	}
}
