// Package counterfactual turns the calibrated simulation from a replay
// into an instrument: named interventions — "what if the Hydra fleet
// dissolved", "what if AWS went dark", "what if every ordinary server
// left the cloud" — rewrite a scenario.Config and/or a built
// scenario.World before the observation campaign runs, and a paired
// runner produces a baseline and an intervention observatory from one
// worker budget so every experiment of the paper can be diffed across
// the two worlds.
//
// Interventions compose: "aws-outage,churn-2x" applies both, in spec
// order, config rewrites before world mutations. Every intervention is
// deterministic and hooks only into the scenario package's intervention
// surface (Config fields, DissolvePLHydras, ProviderOutage), so the
// engine's byte-identical-across-Workers guarantee carries over to
// counterfactual campaigns unchanged: diffs are diffable bit-for-bit.
//
// The measurement vantage points survive every intervention — they are
// the instruments the diff is observed through, not part of the world
// under study.
package counterfactual

import (
	"fmt"
	"sort"
	"strings"

	"tcsb/internal/core"
	"tcsb/internal/ipdb"
	"tcsb/internal/netsim"
	"tcsb/internal/scenario"
	"tcsb/internal/timeline"
)

// Intervention is one named counterfactual rewrite.
type Intervention struct {
	// Name is the CLI key used in -what-if specs. Lower-case, unique.
	Name string
	// Description is the one-line summary shown by -list.
	Description string
	// Rewrite edits the intervention world's config before construction
	// (applied to a deep copy; the baseline config is never touched).
	Rewrite func(*scenario.Config)
	// Mutate rewrites the built world before the campaign runs.
	Mutate func(*scenario.World)
	// ConstructionOnly marks an intervention whose entire effect is a
	// rewrite of construction-time population shape (e.g. rebuilding
	// the server mix). It works under -what-if, where the rewrite runs
	// before world construction, but firing it mid-run against a built
	// world would be a silent no-op — so ScheduleResolver refuses to
	// bridge it into timeline schedules.
	ConstructionOnly bool
}

var (
	catalog []Intervention
	byName  = make(map[string]int)
)

// Register adds an intervention to the catalog. Like the experiment
// registry it panics on invalid or duplicate entries: the catalog is
// assembled in package init and a bad entry is a programming error.
func Register(iv Intervention) {
	if iv.Name == "" || (iv.Rewrite == nil && iv.Mutate == nil) {
		panic("counterfactual: Register with empty name or no effect")
	}
	if _, dup := byName[iv.Name]; dup {
		panic(fmt.Sprintf("counterfactual: duplicate registration of %q", iv.Name))
	}
	byName[iv.Name] = len(catalog)
	catalog = append(catalog, iv)
}

// All returns the registered interventions in registration order.
func All() []Intervention {
	return append([]Intervention(nil), catalog...)
}

// Names returns the registered intervention names in registration order.
func Names() []string {
	out := make([]string, len(catalog))
	for i, iv := range catalog {
		out[i] = iv.Name
	}
	return out
}

// Lookup returns the intervention registered under name.
func Lookup(name string) (Intervention, bool) {
	i, ok := byName[name]
	if !ok {
		return Intervention{}, false
	}
	return catalog[i], true
}

// Parse resolves a comma-separated -what-if spec into interventions, in
// spec order (composition order matters: spec order is application
// order). Unknown and duplicate names are reported together.
func Parse(spec string) ([]Intervention, error) {
	var out []Intervention
	seen := make(map[string]bool)
	var unknown, repeated []string
	for _, f := range strings.Split(spec, ",") {
		name := strings.TrimSpace(strings.ToLower(f))
		if name == "" {
			continue
		}
		iv, known := Lookup(name)
		if !known {
			if !seen[name] {
				seen[name] = true
				unknown = append(unknown, name)
			}
			continue
		}
		if seen[name] {
			repeated = append(repeated, name)
			continue
		}
		seen[name] = true
		out = append(out, iv)
	}
	if len(unknown)+len(repeated) > 0 {
		var parts []string
		if len(unknown) > 0 {
			sort.Strings(unknown)
			parts = append(parts, fmt.Sprintf("unknown interventions %v (known: %s)",
				unknown, strings.Join(Names(), ", ")))
		}
		if len(repeated) > 0 {
			sort.Strings(repeated)
			parts = append(parts, fmt.Sprintf("repeated interventions %v (each applies once)", repeated))
		}
		return nil, fmt.Errorf("bad intervention spec: %s", strings.Join(parts, "; "))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty intervention spec; known: %s", strings.Join(Names(), ", "))
	}
	return out, nil
}

// NamesOf returns the names of a composed intervention list, in
// application order — the label set RunPaired tags results with.
func NamesOf(ivs []Intervention) []string {
	names := make([]string, len(ivs))
	for i, iv := range ivs {
		names[i] = iv.Name
	}
	return names
}

// Spec renders a composed intervention list back into its canonical
// comma-separated form.
func Spec(ivs []Intervention) string {
	return strings.Join(NamesOf(ivs), ",")
}

// Compose folds a list of interventions into one (rewrite, mutate) pair,
// each applying the constituents in list order.
func Compose(ivs []Intervention) (rewrite func(*scenario.Config), mutate func(*scenario.World)) {
	rewrite = func(c *scenario.Config) {
		for _, iv := range ivs {
			if iv.Rewrite != nil {
				iv.Rewrite(c)
			}
		}
	}
	mutate = func(w *scenario.World) {
		for _, iv := range ivs {
			if iv.Mutate != nil {
				iv.Mutate(w)
			}
		}
	}
	return rewrite, mutate
}

// BuildWorld constructs just the intervention world (no campaign): the
// config is deep-copied, rewritten, built and mutated. The invariant
// suite uses this to put every intervention world under the same
// property checks as the baseline.
func BuildWorld(cfg scenario.Config, ivs []Intervention) *scenario.World {
	rewrite, mutate := Compose(ivs)
	c := cfg.Clone()
	rewrite(&c)
	w := scenario.NewWorld(c)
	mutate(w)
	return w
}

// Observe runs the paired campaign: the baseline world built from cfg
// as-is and the intervention world BuildWorld builds, each observed with
// rc, and returns both observatories.
//
// The two campaigns share the run's worker budget: with rc.Workers >= 2
// they execute concurrently, the intervention world on rc.Workers -
// rc.Workers/2 workers and the baseline on rc.Workers/2; otherwise they
// run back-to-back fully serial, baseline first. Either way each
// campaign's datasets are a pure function of its (config, RunConfig-shape)
// alone — the engine's Workers-independence guarantee — so every rendered
// comparison is byte-identical for every rc.Workers value.
func Observe(cfg scenario.Config, rc core.RunConfig, ivs []Intervention) (baseline, whatif *core.Observatory) {
	half, rest := 1, 1
	if rc.Workers >= 2 {
		half, rest = rc.Workers/2, rc.Workers-rc.Workers/2
	}
	observe := func(w *scenario.World, workers int) *core.Observatory {
		r := rc
		r.Workers = workers
		return core.Observe(w, r)
	}
	netsim.ParallelFor(rc.Workers, 2, func(lane int) {
		if lane == 0 {
			baseline = observe(scenario.NewWorld(cfg), half)
		} else {
			whatif = observe(BuildWorld(cfg, ivs), rest)
		}
	})
	return baseline, whatif
}

// ScheduleResolver bridges the intervention registry into the timeline
// engine: a timeline.Schedule event naming a registered intervention
// compiles into that intervention's (rewrite, mutate) pair, fired at
// its epoch. Construction-only interventions are refused — their
// rewrite touches fields a built world never re-reads, so scheduling
// one would silently measure the baseline. The indirection exists
// because timeline cannot import this package (it would cycle through
// core); instead the registry injects itself here.
func ScheduleResolver() timeline.Resolver {
	return func(name string) (timeline.Mutator, error) {
		iv, ok := Lookup(name)
		if !ok {
			return timeline.Mutator{}, fmt.Errorf("unknown intervention %q (known: %s)",
				name, strings.Join(Names(), ", "))
		}
		if iv.ConstructionOnly {
			return timeline.Mutator{}, fmt.Errorf("intervention %q only rewrites construction-time "+
				"population shape and would be a no-op mid-run; use -what-if for it", name)
		}
		return timeline.Mutator{Rewrite: iv.Rewrite, Mutate: iv.Mutate}, nil
	}
}

// The named interventions. Each targets one of the paper's reliance
// claims; see the descriptions (and EXPERIMENTS.md "Counterfactuals"
// for measured deltas).
func init() {
	Register(Intervention{
		Name: "hydra-dissolution",
		Description: "the Protocol Labs Hydra fleet shuts down; the vantage head keeps " +
			"logging but stops its proactive cache-filling lookups",
		Rewrite: func(c *scenario.Config) { c.HydraProactiveLookups = false },
		Mutate:  func(w *scenario.World) { w.DissolvePLHydras() },
	})
	Register(Intervention{
		Name: "aws-outage",
		Description: "every AWS-hosted actor goes dark permanently — storage platforms, " +
			"gateway backends, ordinary servers — and the AWS-hosted Hydra fleet with them",
		Mutate: func(w *scenario.World) {
			w.DissolvePLHydras()
			w.ProviderOutage(ipdb.AmazonAWS)
		},
	})
	Register(Intervention{
		Name: "gateway-surge",
		Description: "HTTP gateway usage doubles (browser-first adoption): the gateway " +
			"share of retrievals rises toward its cap",
		Rewrite: func(c *scenario.Config) {
			c.GatewayTrafficShare *= 2
			if c.GatewayTrafficShare > 0.9 {
				c.GatewayTrafficShare = 0.9
			}
		},
	})
	Register(Intervention{
		Name: "no-cloud-providers",
		Description: "ordinary DHT servers abandon the cloud entirely: the server " +
			"population is rebuilt fully residential (platform operators stay put)",
		Rewrite:          func(c *scenario.Config) { c.CloudServerFrac = 0 },
		ConstructionOnly: true,
	})
	Register(Intervention{
		Name: "churn-2x",
		Description: "residential churn doubles: nodes go offline twice as often and " +
			"rotate IPs and identities more aggressively on return",
		Rewrite: func(c *scenario.Config) {
			c.NonCloudOfflineProb = min(c.NonCloudOfflineProb*2, 1)
			c.RotateIPProb = min(c.RotateIPProb*1.3, 1)
			c.RegenerateIDProb = min(c.RegenerateIDProb*2, 1)
		},
	})
	// Network-realism presets (netsim.LinkPresets). As interventions
	// they compose with what-if pairs and timeline epochs: an
	// "@E:net.degraded" epoch swaps the link model mid-run without
	// disturbing the draw streams (scenario.ApplyRewrite re-installs).
	Register(Intervention{
		Name:        "net.ideal",
		Description: "zero-latency, lossless links — the identity network model (the default)",
		Rewrite:     func(c *scenario.Config) { c.NetProfile = "net.ideal" },
	})
	Register(Intervention{
		Name: "net.measured",
		Description: "links impaired to the measured-Internet calibration: cloud paths " +
			"fast and clean, residential paths slower and lossier",
		Rewrite: func(c *scenario.Config) { c.NetProfile = "net.measured" },
	})
	Register(Intervention{
		Name: "net.degraded",
		Description: "links impaired to a congested-Internet calibration: high delay, " +
			"jitter and loss on every pair class",
		Rewrite: func(c *scenario.Config) { c.NetProfile = "net.degraded" },
	})
}
