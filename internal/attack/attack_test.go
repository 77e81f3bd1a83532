package attack

import (
	"strings"
	"testing"

	"tcsb/internal/counterfactual"
	"tcsb/internal/scenario"
	"tcsb/internal/simtest/campaign"
	"tcsb/internal/timeline"
)

// TestParseParamsRegressionTable pins the grammar verdict and canonical
// form for a fixed spec table (the FuzzParseAttackParams corpus holds
// the same shapes): accepted specs must canonicalize exactly as listed,
// rejected specs must fail with the listed error fragment. Grammar
// changes that move any row are visible here, not just in the fuzzer.
func TestParseParamsRegressionTable(t *testing.T) {
	defaults := "band=16;sybils=24;targets=3;spam=12;stampede=30;poison=2"
	accepted := []struct{ spec, canon string }{
		{"", defaults},
		{";;;", defaults},
		{"band=16", defaults},
		{"band=20;sybils=48", "band=20;sybils=48;targets=3;spam=12;stampede=30;poison=2"},
		{"  SPAM = 100 ; poison=0 ", "band=16;sybils=24;targets=3;spam=100;stampede=30;poison=0"},
		{"poison=64;stampede=0;spam=0;targets=64;sybils=512;band=64",
			"band=64;sybils=512;targets=64;spam=0;stampede=0;poison=64"},
		{"band=4;sybils=1;targets=1", "band=4;sybils=1;targets=1;spam=12;stampede=30;poison=2"},
		{"spam=-0", "band=16;sybils=24;targets=3;spam=0;stampede=30;poison=2"},
	}
	for _, row := range accepted {
		a, err := Parse(row.spec)
		if err != nil {
			t.Errorf("Parse(%q): unexpected error %v", row.spec, err)
			continue
		}
		if got := Spec(a); got != row.canon {
			t.Errorf("Spec(Parse(%q)) = %q, want %q", row.spec, got, row.canon)
		}
	}

	rejected := []struct{ spec, errFrag string }{
		{"band", "not key=value"},
		{"=5", "unknown key"},
		{"width=5", `unknown key "width"`},
		{"band=16;band=16", `duplicate key "band"`},
		{"band=x", "not an integer"},
		{"band=", "not an integer"},
		{"band=1e2", "not an integer"},
		{"band=3", "band=3 outside [4, 64]"},
		{"band=65", "band=65 outside [4, 64]"},
		{"sybils=0", "sybils=0 outside [1, 512]"},
		{"sybils=513", "outside"},
		{"targets=0", "targets=0 outside [1, 64]"},
		{"spam=-1", "spam=-1 outside [0, 1000]"},
		{"spam=1001", "outside"},
		{"stampede=1001", "outside"},
		{"poison=65", "outside"},
		{"band=999999999999999999999", "not an integer"},
	}
	for _, row := range rejected {
		if _, err := Parse(row.spec); err == nil {
			t.Errorf("Parse(%q): accepted, want error containing %q", row.spec, row.errFrag)
		} else if !strings.Contains(err.Error(), row.errFrag) {
			t.Errorf("Parse(%q) error %q does not contain %q", row.spec, err, row.errFrag)
		}
	}
}

// TestParseSetsParamsOnly pins that Parse binds each key to its
// AttackConfig field, fills omitted keys from WithDefaults, and never
// switches an attack on (interventions flip the switches).
func TestParseSetsParamsOnly(t *testing.T) {
	got, err := Parse("band=20;sybils=48;targets=5;spam=7;stampede=11;poison=4")
	if err != nil {
		t.Fatal(err)
	}
	want := scenario.AttackConfig{
		Band: 20, SybilsPerTarget: 48, Targets: 5,
		SpamPerTick: 7, StampedePerTick: 11, PoisonCIDs: 4,
	}
	if got != want {
		t.Fatalf("Parse = %+v, want %+v", got, want)
	}
	if got.Any() {
		t.Fatal("Parse must not flip attack switches")
	}
	if got, err := Parse("spam=5"); err != nil || got != (scenario.AttackConfig{SpamPerTick: 5}.WithDefaults()) {
		t.Fatalf("Parse(spam=5) = %+v, %v; want the other keys from WithDefaults", got, err)
	}
}

// TestScheduleResolverErrors table-tests the resolver's error surface:
// an unknown intervention must be named with the full registered list —
// attack.* entries included — so a typo'd schedule points straight at
// the vocabulary.
func TestScheduleResolverErrors(t *testing.T) {
	resolver := counterfactual.ScheduleResolver()
	for _, row := range []struct {
		name     string
		errFrags []string
	}{
		{"nope", []string{`unknown intervention "nope"`, "known:"}},
		{"attack.sybil", []string{`unknown intervention "attack.sybil"`, "known:"}},
		{"no-cloud-providers", []string{"construction-time", "-what-if"}},
	} {
		_, err := resolver(row.name)
		if err == nil {
			t.Errorf("resolver(%q): no error", row.name)
			continue
		}
		for _, frag := range row.errFrags {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("resolver(%q) error %q missing %q", row.name, err, frag)
			}
		}
	}
	// The unknown-name error lists every registered intervention,
	// including all four attacks.
	_, err := resolver("nope")
	for _, name := range append(Names(), "hydra-dissolution", "aws-outage", "churn-2x") {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-intervention error does not list %q: %v", name, err)
		}
	}
	// Every attack resolves to a full mutator.
	for _, name := range Names() {
		m, err := resolver(name)
		if err != nil {
			t.Errorf("resolver(%q): %v", name, err)
			continue
		}
		if m.Rewrite == nil || m.Mutate == nil {
			t.Errorf("resolver(%q): mutator missing rewrite or mutate", name)
		}
	}
}

// TestAttackRegistrations pins the registry-facing shape: four attacks,
// attack.-prefixed, parseable as a composed -what-if spec.
func TestAttackRegistrations(t *testing.T) {
	names := Names()
	if len(names) != 4 {
		t.Fatalf("want 4 attacks, got %v", names)
	}
	for _, name := range names {
		if !strings.HasPrefix(name, "attack.") {
			t.Errorf("attack %q must carry the attack. prefix", name)
		}
	}
	ivs, err := counterfactual.Parse(strings.Join(names, ","))
	if err != nil {
		t.Fatalf("composed attack spec does not parse: %v", err)
	}
	if got := counterfactual.Spec(ivs); got != strings.Join(names, ",") {
		t.Fatalf("composed spec round-trip: %q", got)
	}
}

// TestPresetsCompile pins that — with the attack family registered —
// every timeline.* preset compiles against the intervention registry,
// including the adversarial timeline.siege preset this family adds.
func TestPresetsCompile(t *testing.T) {
	siege := false
	for _, p := range timeline.Presets() {
		if _, err := campaign.CompileSchedule(p.Spec); err != nil {
			t.Errorf("preset %q does not compile: %v", p.Name, err)
		}
		if p.Name == "timeline.siege" {
			siege = true
			for _, name := range []string{"attack.sybil-eclipse", "attack.provider-spam", "attack.gateway-stampede"} {
				if !strings.Contains(p.Spec, name) {
					t.Errorf("timeline.siege is missing the %s epoch", name)
				}
			}
		}
	}
	if !siege {
		t.Fatal("timeline.siege preset is not registered")
	}
}
