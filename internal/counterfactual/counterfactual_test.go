package counterfactual

import (
	"strings"
	"testing"

	"tcsb/internal/ipdb"
	"tcsb/internal/scenario"
	"tcsb/internal/timeline"
)

func smallConfig(seed int64) scenario.Config {
	cfg := scenario.DefaultConfig().Scaled(0.08)
	cfg.Seed = seed
	return cfg
}

// TestScheduleResolver pins the registry-to-timeline bridge: every
// schedulable intervention resolves, unknown names carry the catalog in
// the error, and construction-only rewrites are refused (scheduling one
// against a built world would silently measure the baseline).
func TestScheduleResolver(t *testing.T) {
	res := ScheduleResolver()
	for _, iv := range All() {
		_, err := res(iv.Name)
		if iv.ConstructionOnly {
			if err == nil || !strings.Contains(err.Error(), "no-op mid-run") {
				t.Errorf("construction-only intervention %q not refused: %v", iv.Name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("intervention %q failed to resolve: %v", iv.Name, err)
		}
	}
	if _, err := res("nope"); err == nil || !strings.Contains(err.Error(), "hydra-dissolution") {
		t.Errorf("unknown name should list the catalog, got %v", err)
	}
	compile := func(spec string) (*timeline.Compiled, error) {
		s, err := timeline.Parse(spec)
		if err != nil {
			return nil, err
		}
		return s.Compile(ScheduleResolver())
	}
	if _, err := compile("epochs=3;@1:no-cloud-providers"); err == nil {
		t.Error("Compile accepted a construction-only intervention")
	}
	if c, err := compile("epochs=3;@1:hydra-dissolution"); err != nil || c.Spec() != "epochs=3;days=1;@1:hydra-dissolution" {
		t.Errorf("Compile(valid) = %v, %v", c, err)
	}
}

func TestCatalogAndParse(t *testing.T) {
	if len(All()) < 4 {
		t.Fatalf("catalog has %d interventions, the instrument promises at least 4", len(All()))
	}
	for _, iv := range All() {
		if iv.Name != strings.ToLower(iv.Name) || iv.Description == "" {
			t.Errorf("intervention %q must be lower-case and described", iv.Name)
		}
		if _, ok := Lookup(iv.Name); !ok {
			t.Errorf("Lookup(%q) failed", iv.Name)
		}
	}

	ivs, err := Parse(" Hydra-Dissolution , churn-2x ")
	if err != nil {
		t.Fatal(err)
	}
	if Spec(ivs) != "hydra-dissolution,churn-2x" {
		t.Fatalf("Parse kept spec order badly: %q", Spec(ivs))
	}
	if _, err := Parse("nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown intervention should be reported, got %v", err)
	}
	if _, err := Parse("churn-2x,churn-2x"); err == nil || !strings.Contains(err.Error(), "repeated") {
		t.Fatalf("repeated intervention should be reported, got %v", err)
	}
	// An unknown name appearing twice is an unknown, not a repeat...
	if _, err := Parse("typo,typo"); err == nil ||
		!strings.Contains(err.Error(), "unknown") || strings.Contains(err.Error(), "repeated") {
		t.Fatalf("duplicated unknown should report as unknown only, got %v", err)
	}
	// ...and unknowns and repeats are reported together in one error.
	if _, err := Parse("nope,churn-2x,churn-2x"); err == nil ||
		!strings.Contains(err.Error(), "nope") || !strings.Contains(err.Error(), "repeated") {
		t.Fatalf("unknowns and repeats should be reported together, got %v", err)
	}
	if _, err := Parse(" , "); err == nil {
		t.Fatal("empty spec should error")
	}
}

func TestRegisterRejectsBadEntries(t *testing.T) {
	expectPanic := func(name string, iv Intervention) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(iv)
	}
	expectPanic("empty", Intervention{})
	expectPanic("no effect", Intervention{Name: "x"})
	expectPanic("duplicate", Intervention{Name: "churn-2x", Rewrite: func(*scenario.Config) {}})
}

// TestRewritesDoNotAliasBaseline guards the paired runner's deep-copy
// contract: composing and applying every registered rewrite must leave
// the original config (scalar fields and weight maps) untouched.
func TestRewritesDoNotAliasBaseline(t *testing.T) {
	cfg := smallConfig(1)
	choopaBefore := cfg.ProviderWeights[ipdb.Choopa]
	cloudFracBefore := cfg.CloudServerFrac

	rewrite, _ := Compose(All())
	clone := cfg.Clone()
	rewrite(&clone)

	if cfg.CloudServerFrac != cloudFracBefore || cfg.ProviderWeights[ipdb.Choopa] != choopaBefore {
		t.Fatal("rewriting a clone mutated the baseline config")
	}
	if clone.CloudServerFrac != 0 {
		t.Fatal("no-cloud-providers rewrite did not land on the clone")
	}
	// Mutating the clone's maps must not leak either.
	clone.ProviderWeights[ipdb.Choopa] = 0
	if cfg.ProviderWeights[ipdb.Choopa] != choopaBefore {
		t.Fatal("clone aliases the baseline's weight maps")
	}
}

func TestHydraDissolutionWorld(t *testing.T) {
	w := BuildWorld(smallConfig(2), mustParse(t, "hydra-dissolution"))
	if len(w.PLHydras) != 0 {
		t.Fatalf("PL hydras survived dissolution: %d", len(w.PLHydras))
	}
	if w.Hydra == nil || len(w.Hydra.Heads()) == 0 {
		t.Fatal("the measurement vantage must survive every intervention")
	}
	if w.Cfg.HydraProactiveLookups {
		t.Fatal("dissolution should silence the vantage's proactive lookups")
	}
	for _, head := range w.Hydra.Heads() {
		if !w.Net.Online(head) {
			t.Fatal("vantage head went offline")
		}
	}
}

func TestAWSOutageWorld(t *testing.T) {
	w := BuildWorld(smallConfig(3), mustParse(t, "aws-outage"))
	if n := w.PinnedOfflineCount(); n == 0 {
		t.Fatal("aws-outage pinned nobody offline")
	}
	for _, a := range w.Actors {
		if a.Provider == ipdb.AmazonAWS && (a.Online || !a.PinnedOffline) {
			t.Fatalf("AWS actor %s survived the outage (online=%v pinned=%v)",
				a.ID.String(), a.Online, a.PinnedOffline)
		}
	}
	if len(w.PLHydras) != 0 {
		t.Fatal("the AWS-hosted PL hydra fleet survived the outage")
	}
	// The outage must stick through simulated time: churn cannot revive
	// pinned actors.
	for tick := 0; tick < scenario.TicksPerDay; tick++ {
		w.StepTick()
	}
	for _, a := range w.Actors {
		if a.PinnedOffline && a.Online {
			t.Fatalf("pinned actor %s came back through churn", a.ID.String())
		}
	}
}

func TestComposedWorld(t *testing.T) {
	base := smallConfig(4)
	w := BuildWorld(base, mustParse(t, "gateway-surge,churn-2x"))
	if want := base.GatewayTrafficShare * 2; w.Cfg.GatewayTrafficShare != want {
		t.Fatalf("gateway-surge: share %v, want %v", w.Cfg.GatewayTrafficShare, want)
	}
	if want := base.NonCloudOfflineProb * 2; w.Cfg.NonCloudOfflineProb != want {
		t.Fatalf("churn-2x: offline prob %v, want %v", w.Cfg.NonCloudOfflineProb, want)
	}
	if w.Cfg.RotateIPProb > 1 || w.Cfg.RegenerateIDProb > 1 || w.Cfg.NonCloudOfflineProb > 1 {
		t.Fatal("churn-2x must clamp probabilities at 1")
	}
}

func mustParse(t *testing.T, spec string) []Intervention {
	t.Helper()
	ivs, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ivs
}
