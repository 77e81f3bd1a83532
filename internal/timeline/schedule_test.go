package timeline

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tcsb/internal/ipdb"
	"tcsb/internal/scenario"
)

// testResolver resolves a fixed intervention set without depending on
// the counterfactual registry (which this package must not import).
func testResolver() Resolver {
	known := map[string]bool{"hydra-dissolution": true, "aws-outage": true, "churn-2x": true}
	return func(name string) (Mutator, error) {
		if !known[name] {
			return Mutator{}, fmt.Errorf("unknown intervention %q", name)
		}
		return Mutator{Mutate: func(w *scenario.World) {}}, nil
	}
}

func TestParseCanonicalRoundTrip(t *testing.T) {
	specs := []string{
		"epochs=14;days=1;@5:hydra-dissolution",
		"epochs=3;days=2;@0:churn:2.5;@1:arrive:choopa:10;@2:depart:hetzner_online",
		"epochs=1;days=1",
	}
	for _, spec := range specs {
		s, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := s.String(); got != spec {
			t.Errorf("canonical spec round-trip: %q -> %q", spec, got)
		}
		back, err := Parse(s.String())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", s.String(), err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Errorf("Parse(String()) != original: %+v vs %+v", s, back)
		}
	}
}

func TestParseNormalizes(t *testing.T) {
	// Whitespace, clause order, non-canonical numbers and unsorted
	// events all normalize; same-epoch order is preserved (stable sort).
	s, err := Parse("  @2:churn:2.0 ; epochs=3 ;@1:arrive:choopa:007; days=1; @1:depart:vultr ")
	if err != nil {
		t.Fatal(err)
	}
	want := "epochs=3;days=1;@1:arrive:choopa:7;@1:depart:vultr;@2:churn:2"
	if got := s.String(); got != want {
		t.Errorf("normalized spec = %q, want %q", got, want)
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		"",                                       // no epochs
		"days=2",                                 // no epochs
		"epochs=0",                               // below bounds
		"epochs=129",                             // above MaxEpochs
		"epochs=2;days=0",                        // days below bounds
		"epochs=2;days=31",                       // days above bounds
		"epochs=128;days=30",                     // total days above MaxScheduleDays
		"epochs=2;epochs=3",                      // duplicate clause
		"epochs=2;days=1;days=1",                 // duplicate clause
		"epochs=2;bogus=1",                       // unknown clause
		"epochs=2;@2:hydra-dissolution",          // event outside [0, Epochs)
		"epochs=2;@-1:hydra-dissolution",         // negative epoch
		"epochs=2;@x:hydra-dissolution",          // non-numeric epoch
		"epochs=2;@1",                            // missing action
		"epochs=2;@1:",                           // empty action
		"epochs=2;@1:Bad-Name",                   // upper-case name
		"epochs=2;@1:arrive:choopa",              // arrive missing count
		"epochs=2;@1:arrive:choopa:0",            // count below bounds
		"epochs=2;@1:arrive:choopa:100001",       // count above MaxArrival
		"epochs=2;@1:arrive:choopa:x",            // bad count
		"epochs=2;@1:depart",                     // depart missing provider
		"epochs=2;@1:depart:a:b",                 // depart extra field
		"epochs=2;@1:churn:0",                    // factor must be > 0
		"epochs=2;@1:churn:-1",                   // negative factor
		"epochs=2;@1:churn:101",                  // above MaxChurnFactor
		"epochs=2;@1:churn:abc",                  // bad factor
		"epochs=2;@1:a:b",                        // unknown multi-part action
		"epochs=2;@1:x;@1:x",                     // exact duplicate event
		"epochs=2;@1:" + strings.Repeat("a", 65), // name too long
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted a bad spec", spec)
		}
	}
}

func TestCompileResolvesNames(t *testing.T) {
	s := MustParse("epochs=4;@1:hydra-dissolution;@2:arrive:choopa:5;@3:churn:2")
	c, err := s.Compile(testResolver())
	if err != nil {
		t.Fatal(err)
	}
	if c.Spec() != s.String() {
		t.Errorf("Spec() = %q, want %q", c.Spec(), s.String())
	}
	if got := c.LabelsAt(1); len(got) != 1 || got[0] != "hydra-dissolution" {
		t.Errorf("LabelsAt(1) = %v", got)
	}
	if got := c.LabelsAt(0); got != nil {
		t.Errorf("LabelsAt(0) = %v, want nil (quiet epoch)", got)
	}
	if got := c.ActionsAt(99); got != nil {
		t.Errorf("ActionsAt(99) = %v, want nil", got)
	}

	// Semantic failures: unknown intervention, unknown provider, missing
	// resolver.
	if _, err := MustParse("epochs=2;@1:nonexistent").Compile(testResolver()); err == nil ||
		!strings.Contains(err.Error(), "unknown intervention") {
		t.Errorf("unknown intervention not rejected: %v", err)
	}
	if _, err := MustParse("epochs=2;@1:arrive:notaprovider:5").Compile(testResolver()); err == nil ||
		!strings.Contains(err.Error(), "unknown provider") {
		t.Errorf("unknown provider not rejected: %v", err)
	}
	if _, err := MustParse("epochs=2;@1:depart:notaprovider").Compile(testResolver()); err == nil ||
		!strings.Contains(err.Error(), "unknown provider") {
		t.Errorf("unknown depart provider not rejected: %v", err)
	}
	if _, err := MustParse("epochs=2;@1:hydra-dissolution").Compile(nil); err == nil ||
		!strings.Contains(err.Error(), "resolver") {
		t.Errorf("nil resolver not rejected: %v", err)
	}
	// Drift-only schedules need no resolver at all.
	if _, err := MustParse("epochs=2;@1:churn:2").Compile(nil); err != nil {
		t.Errorf("drift-only schedule should compile without a resolver: %v", err)
	}
}

func TestCompiledActionsFire(t *testing.T) {
	cfg := scenario.DefaultConfig().Scaled(0.05)
	cfg.Seed = 3
	w := scenario.NewWorld(cfg)
	base := w.Snapshot()

	s := MustParse("epochs=3;@0:arrive:" + ipdb.Choopa + ":7;@1:depart:" + ipdb.Choopa + ";@2:churn:2")
	c, err := s.Compile(testResolver())
	if err != nil {
		t.Fatal(err)
	}

	for _, a := range c.ActionsAt(0) {
		a.Apply(w)
	}
	if got := w.Snapshot(); got.Servers != base.Servers+7 {
		t.Errorf("arrival: servers %d, want %d", got.Servers, base.Servers+7)
	}
	for _, a := range c.ActionsAt(1) {
		a.Apply(w)
	}
	if got := w.Snapshot(); got.PinnedOffline == 0 {
		t.Error("departure pinned no actors")
	}
	churnBefore := w.Cfg.NonCloudOfflineProb
	for _, a := range c.ActionsAt(2) {
		a.Apply(w)
	}
	if got := w.Cfg.NonCloudOfflineProb; got != churnBefore*2 {
		t.Errorf("churn drift: offline prob %v, want %v", got, churnBefore*2)
	}
}

func TestEventLabel(t *testing.T) {
	cases := []struct{ spec, label string }{
		{"@5:hydra-dissolution", "hydra-dissolution"},
		{"@1:arrive:choopa:10", "arrive:choopa:10"},
		{"@2:depart:vultr", "depart:vultr"},
		{"@3:churn:0.5", "churn:0.5"},
	}
	for _, tc := range cases {
		s := MustParse("epochs=8;" + tc.spec)
		if got := s.Events[0].Label(); got != tc.label {
			t.Errorf("Label(%q) = %q, want %q", tc.spec, got, tc.label)
		}
	}
}

func TestPresetsAreValid(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Presets() {
		if !strings.HasPrefix(p.Name, "timeline.") {
			t.Errorf("preset %q must carry the timeline. prefix", p.Name)
		}
		if p.Description == "" {
			t.Errorf("preset %q has no description", p.Name)
		}
		if seen[p.Name] {
			t.Errorf("duplicate preset %q", p.Name)
		}
		seen[p.Name] = true
		s, err := Parse(p.Spec)
		if err != nil {
			t.Errorf("preset %q spec does not parse: %v", p.Name, err)
			continue
		}
		if s.String() != p.Spec {
			t.Errorf("preset %q spec %q is not canonical (want %q)", p.Name, p.Spec, s.String())
		}
		if _, ok := LookupPreset(p.Name); !ok {
			t.Errorf("LookupPreset(%q) failed", p.Name)
		}
	}
	if _, ok := LookupPreset("timeline.nope"); ok {
		t.Error("LookupPreset accepted an unknown name")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic on a bad spec")
		}
	}()
	MustParse("epochs=0")
}
