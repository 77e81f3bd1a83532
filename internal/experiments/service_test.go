package experiments

import (
	"strings"
	"testing"

	"tcsb/internal/core"
	"tcsb/internal/netsim"
)

// validRequest is the baseline the mutation tests perturb: every
// optional field populated so a perturbation of any of them is visible
// in the key.
func validRequest() core.RunRequest {
	return core.RunRequest{
		Seed:       7,
		Scale:      0.1,
		Days:       2,
		NetProfile: "net.measured",
		Only:       []string{"fig3", "table1"},
		Workers:    2,
		Parallel:   2,
	}
}

// TestResolveRejectsInvalidInput pins the error surface: every class of
// invalid request is a Resolve error (HTTP 400 in the server, exit 2 in
// the CLI), never a panic and never a silent fallback.
func TestResolveRejectsInvalidInput(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*core.RunRequest)
		wantErr string
	}{
		{"negative scale", func(r *core.RunRequest) { r.Scale = -1 }, "negative"},
		{"negative days", func(r *core.RunRequest) { r.Days = -3 }, "negative"},
		{"negative epochs", func(r *core.RunRequest) { r.Days = 0; r.Epochs = -1 }, "negative"},
		{"negative workers", func(r *core.RunRequest) { r.Workers = -1 }, "not positive"},
		{"negative parallel", func(r *core.RunRequest) { r.Parallel = -2 }, "not positive"},
		{
			"whatIf and timeline together",
			func(r *core.RunRequest) { r.Days = 0; r.WhatIf = "hydra-dissolution"; r.Timeline = "epochs=3" },
			"mutually exclusive",
		},
		{
			"days in timeline mode",
			func(r *core.RunRequest) { r.Timeline = "epochs=3" },
			"owned by the schedule",
		},
		{"unknown experiment", func(r *core.RunRequest) { r.Only = []string{"fig999"} }, "unknown experiment"},
		{
			"timeline experiment in plain mode",
			func(r *core.RunRequest) { r.Only = []string{"timeline.population"} },
			"timeline.population",
		},
		{"unknown intervention", func(r *core.RunRequest) { r.WhatIf = "no-such-intervention" }, "no-such-intervention"},
		{"bad timeline grammar", func(r *core.RunRequest) { r.Days = 0; r.Timeline = "epochs=zero" }, "epochs"},
		{
			"unknown scheduled intervention",
			func(r *core.RunRequest) { r.Days = 0; r.Timeline = "epochs=3;@1:bogus" },
			"bogus",
		},
		{"unknown preset", func(r *core.RunRequest) { r.Preset = "scale.999x" }, "unknown preset"},
		{"bad net profile", func(r *core.RunRequest) { r.NetProfile = "net.nope" }, "net profile"},
		{"bad attack params", func(r *core.RunRequest) { r.AttackParams = "sybils=many" }, "sybils"},
		{
			"epochs override out of schedule range",
			func(r *core.RunRequest) { r.Days = 0; r.Timeline = "epochs=5;@4:hydra-dissolution"; r.Epochs = 2 },
			"epochs override",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			req := validRequest()
			tc.mutate(&req)
			_, err := Resolve(req)
			if err == nil {
				t.Fatalf("Resolve accepted %+v", req)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func mustResolve(t *testing.T, req core.RunRequest) *Resolved {
	t.Helper()
	res, err := Resolve(req)
	if err != nil {
		t.Fatalf("Resolve(%+v): %v", req, err)
	}
	return res
}

// TestCacheKeyStability pins the content-address algebra: identical
// requests share a key, every output-relevant field change produces a
// new key, and concurrency knobs (which never change the output) do
// not.
func TestCacheKeyStability(t *testing.T) {
	base := mustResolve(t, validRequest()).Key
	if len(base) != 64 {
		t.Fatalf("key %q is not sha256 hex", base)
	}
	if again := mustResolve(t, validRequest()).Key; again != base {
		t.Fatalf("same request resolved to different keys: %s vs %s", base, again)
	}

	// Every output-relevant perturbation must move the key.
	perturbations := map[string]func(*core.RunRequest){
		"seed":         func(r *core.RunRequest) { r.Seed = 8 },
		"scale":        func(r *core.RunRequest) { r.Scale = 0.2 },
		"preset":       func(r *core.RunRequest) { r.Preset = "scale.2x" },
		"days":         func(r *core.RunRequest) { r.Days = 3 },
		"netProfile":   func(r *core.RunRequest) { r.NetProfile = "net.degraded" },
		"attackParams": func(r *core.RunRequest) { r.AttackParams = "sybils=48" },
		"whatIf":       func(r *core.RunRequest) { r.WhatIf = "hydra-dissolution"; r.Only = nil },
		"timeline":     func(r *core.RunRequest) { r.Days = 0; r.Timeline = "epochs=3"; r.Only = nil },
		"only":         func(r *core.RunRequest) { r.Only = []string{"fig3"} },
	}
	seen := map[string]string{base: "base"}
	for name, mutate := range perturbations {
		req := validRequest()
		mutate(&req)
		key := mustResolve(t, req).Key
		if prev, dup := seen[key]; dup {
			t.Errorf("%s collides with %s: %s", name, prev, key)
		}
		seen[key] = name
	}

	// Concurrency knobs are excluded by design: output is byte-identical
	// for every value, so runs differing only here share one entry.
	for name, mutate := range map[string]func(*core.RunRequest){
		"workers":  func(r *core.RunRequest) { r.Workers = 7 },
		"parallel": func(r *core.RunRequest) { r.Parallel = 1 },
	} {
		req := validRequest()
		mutate(&req)
		if key := mustResolve(t, req).Key; key != base {
			t.Errorf("%s changed the key: %s vs %s (concurrency must not address content)", name, key, base)
		}
	}

	// Epochs folds into the canonical timeline spec, so an override that
	// changes the schedule changes the key.
	tl := validRequest()
	tl.Days = 0
	tl.Timeline = "epochs=3"
	tl.Only = nil
	tlKey := mustResolve(t, tl).Key
	tl.Epochs = 5
	if k := mustResolve(t, tl).Key; k == tlKey {
		t.Error("epochs override did not move the key")
	}
}

// TestCacheKeyPinned pins the key bytes for one request per mode. Run
// archives are named by these keys and a restarted server primes its
// cache by re-resolving each archived request, so a key that moves
// turns every archived run into a miss. It must fail here instead.
func TestCacheKeyPinned(t *testing.T) {
	cases := []struct {
		name string
		req  core.RunRequest
		want string
	}{
		{
			"plain",
			core.RunRequest{Seed: 3005, Scale: 0.1, Days: 1},
			"40a219bb65c2c9537ea42dcf46120f4afbdb3e297422e87a3eb7e18c323b0085",
		},
		{
			"what-if",
			core.RunRequest{Seed: 4, Scale: 0.25, Days: 2, WhatIf: "hydra-dissolution"},
			"8f2212631052020c6e5657734cc903b4861c44a81560fb6970fc9430afb716b1",
		},
		{
			"timeline on a link profile",
			core.RunRequest{Seed: 6, Scale: 0.1, Timeline: "timeline.dissolution", NetProfile: "net.measured"},
			"be94a6dd09130e43cbce951866455c5d00bbc362d3800e91f614ae93fc76b2d2",
		},
		{
			"preset, attack params, composed what-if, selection",
			core.RunRequest{
				Seed:         2,
				Preset:       "scale.2x",
				AttackParams: "band=16;sybils=24",
				WhatIf:       "attack.sybil-eclipse,churn-2x",
				Only:         []string{"whatif.fig3", "WHATIF.section3"},
			},
			"12750ed2443f5b6ba2946a5c33b40a7cf5b8b2f704f28063750469723efcaf53",
		},
	}
	for _, tc := range cases {
		if got := mustResolve(t, tc.req).Key; got != tc.want {
			t.Errorf("%s: key %s, want %s", tc.name, got, tc.want)
		}
	}
}

var resolveSink *Resolved

// BenchmarkResolve measures one resolve of the serve-hit request shape:
// what a cache hit pays before the cache lookup.
func BenchmarkResolve(b *testing.B) {
	req := core.RunRequest{Seed: 3005, Scale: 0.1, Days: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Resolve(req)
		if err != nil {
			b.Fatal(err)
		}
		resolveSink = res
	}
}

// TestCacheKeyCanonicalization pins the equivalence classes: different
// spellings of the same work must land on the same cache entry, or the
// CLI and server would silently re-run campaigns they already have.
func TestCacheKeyCanonicalization(t *testing.T) {
	key := func(mutate func(*core.RunRequest)) string {
		req := validRequest()
		mutate(&req)
		return mustResolve(t, req).Key
	}

	// A net.* preset and its raw spec are the same profile.
	measured, ok := func() (netsim.LinkPreset, bool) {
		for _, p := range netsim.LinkPresets() {
			if p.Name == "net.measured" {
				return p, true
			}
		}
		return netsim.LinkPreset{}, false
	}()
	if !ok {
		t.Fatal("net.measured missing from the preset family")
	}
	if a, b := key(func(r *core.RunRequest) { r.NetProfile = "net.measured" }),
		key(func(r *core.RunRequest) { r.NetProfile = measured.Spec }); a != b {
		t.Error("net.measured and its raw spec resolved to different keys")
	}

	// net.ideal, the empty profile and the zero spec are one identity.
	ideal := key(func(r *core.RunRequest) { r.NetProfile = "net.ideal" })
	if empty := key(func(r *core.RunRequest) { r.NetProfile = "" }); ideal != empty {
		t.Error("net.ideal and the empty profile resolved to different keys")
	}

	// -scale 4 and -preset scale.4x build the same world.
	if a, b := key(func(r *core.RunRequest) { r.Scale = 4 }),
		key(func(r *core.RunRequest) { r.Preset = "scale.4x"; r.Scale = 0 }); a != b {
		t.Error("scale 4 and preset scale.4x resolved to different keys")
	}

	// A timeline.* preset and its spec are the same schedule.
	if a, b := key(func(r *core.RunRequest) { r.Days = 0; r.Only = nil; r.Timeline = "timeline.dissolution" }),
		key(func(r *core.RunRequest) { r.Days = 0; r.Only = nil; r.Timeline = "epochs=14;@5:hydra-dissolution" }); a != b {
		t.Error("timeline preset and its spec resolved to different keys")
	}

	// Selection is case-, order- and duplicate-insensitive.
	if a, b := key(func(r *core.RunRequest) { r.Only = []string{"table1", "FIG3", "fig3"} }),
		key(func(r *core.RunRequest) { r.Only = []string{"fig3", "table1"} }); a != b {
		t.Error("selection spelling resolved to different keys")
	}
}
