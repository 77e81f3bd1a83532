package experiments

// The shared run-request plumbing behind cmd/tcsb-experiments and
// cmd/tcsb-server: both entry points reduce their input (flags, JSON
// body) to a core.RunRequest, Resolve validates and canonicalizes it —
// every spec rewritten to its grammar fixed point, every name resolved
// against its registry, every error reported before any simulation is
// paid for — and Execute runs the campaign and derives the selected
// experiments. Because canonicalization happens here, in one place,
// the CLI and the server compute identical content-addressed cache
// keys for identical work, which is what makes a run primed by one a
// byte-exact cache hit for the other.

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"tcsb/internal/attack"
	"tcsb/internal/core"
	"tcsb/internal/counterfactual"
	"tcsb/internal/netsim"
	"tcsb/internal/scenario"
	"tcsb/internal/timeline"
)

// Resolved is a validated, canonicalized run request with everything
// derived from it: the built scenario config, the campaign RunConfig,
// the execution mode, the compiled schedule or intervention list, and
// the content-addressed cache key.
type Resolved struct {
	// Req is the request in canonical form: specs rewritten to their
	// grammar fixed points, the epochs override folded into Timeline,
	// Only lower-cased/deduped/sorted.
	Req core.RunRequest
	// Cfg is the fully resolved scenario config (scale and preset
	// applied, attack params written, net profile canonicalized).
	Cfg scenario.Config
	// RC is the campaign run config (days and workers applied).
	RC core.RunConfig
	// Mode is the execution mode the request selects.
	Mode Mode
	// Interventions is the composed what-if list (ModeDelta only).
	Interventions []counterfactual.Intervention
	// Schedule is the compiled timeline (ModeTimeline only).
	Schedule *timeline.Compiled
	// Key is the content-addressed cache key (core.RunRequest.Key over
	// the canonical request and resolved config).
	Key string
	// Parallel bounds concurrent experiment derivations during Execute.
	// Resolve seeds it from Req.Parallel; an entry point may raise it
	// for its own scheduling without touching Req — the canonical
	// request is what gets echoed back to clients and archived, and
	// must never grow fields the client didn't send. (Like Workers,
	// Parallel is not part of Key: output is byte-identical for every
	// value.)
	Parallel int
}

// defaultConfig is the config every request scales. Scaled returns a
// deep copy, so resolving never writes to it.
var defaultConfig = scenario.DefaultConfig()

// Resolve validates a run request and resolves it against every
// registry: the scale.* presets, the counterfactual interventions, the
// timeline grammar and presets, the attack-params grammar, the net.*
// link profiles and the experiment catalog. All errors surface here,
// with no simulation cost; the returned Resolved is ready to Execute.
func Resolve(req core.RunRequest) (*Resolved, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}

	// Canonicalize the experiment selection: lower-case, dedupe, keep
	// sorted order for the cache key (execution order is registration
	// order regardless).
	req.Only = canonicalNames(req.Only)

	// What-if: resolve and canonicalize the intervention list.
	var interventions []counterfactual.Intervention
	if req.WhatIf != "" {
		ivs, err := counterfactual.Parse(req.WhatIf)
		if err != nil {
			return nil, err
		}
		interventions = ivs
		req.WhatIf = counterfactual.Spec(ivs)
	}

	// Timeline: resolve a preset name or parse the grammar, fold in the
	// epochs override, and compile against the intervention registry.
	var schedule *timeline.Compiled
	if req.IsTimeline() {
		spec := req.Timeline
		if p, ok := timeline.LookupPreset(spec); ok {
			spec = p.Spec
		}
		if spec == "" {
			spec = fmt.Sprintf("epochs=%d", req.Epochs)
		}
		sch, err := timeline.Parse(spec)
		if err != nil {
			return nil, err
		}
		if req.Epochs > 0 {
			sch.Epochs = req.Epochs
			if err := sch.Validate(); err != nil {
				return nil, fmt.Errorf("epochs override: %w", err)
			}
		}
		if schedule, err = sch.Compile(counterfactual.ScheduleResolver()); err != nil {
			return nil, err
		}
		req.Timeline = schedule.Spec()
		req.Epochs = 0 // folded into the canonical spec
	}

	// Mode, then selection validation scoped to it. An empty selection
	// means every experiment of the mode and cannot fail.
	mode := ModeRun
	switch {
	case len(interventions) > 0:
		mode = ModeDelta
	case schedule != nil:
		mode = ModeTimeline
	}
	if len(req.Only) > 0 {
		if _, err := SelectFor(req.Only, mode); err != nil {
			return nil, err
		}
	}

	// Scenario config: scale × preset, attack params, link profile.
	scale := req.Scale
	if scale == 0 {
		scale = 1.0
	}
	cfg := defaultConfig.Scaled(scale)
	if req.Preset != "" {
		p, ok := scenario.LookupScale(req.Preset)
		if !ok {
			return nil, fmt.Errorf("unknown preset %q; the scale.* family is listed by -list and /v1/presets", req.Preset)
		}
		cfg = p.Apply(cfg)
	}
	if req.AttackParams != "" {
		// Switches stay off: interventions flip them on a clone.
		a, err := attack.Parse(req.AttackParams)
		if err != nil {
			return nil, err
		}
		cfg.Attack = a
		req.AttackParams = attack.Spec(a)
	}
	if req.NetProfile != "" {
		p, err := netsim.ResolveLinkProfile(req.NetProfile)
		if err != nil {
			return nil, fmt.Errorf("net profile: %w", err)
		}
		// net.ideal and the empty profile are the same identity; an
		// impairing profile canonicalizes to its grammar fixed point.
		if p.IsZero() {
			req.NetProfile = ""
		} else {
			req.NetProfile = p.String()
		}
		cfg.NetProfile = req.NetProfile
	}
	cfg.Seed = req.Seed

	res := &Resolved{
		Req:           req,
		Cfg:           cfg,
		RC:            req.RunConfig(),
		Mode:          mode,
		Interventions: interventions,
		Schedule:      schedule,
		Parallel:      req.Parallel,
	}
	res.Key = req.Key(cfg)
	return res, nil
}

// Progress receives the campaign's stage announcements (stderr
// narration in the CLI, request logs in the server). A nil Progress is
// silent.
type Progress func(format string, args ...any)

func (p Progress) printf(format string, args ...any) {
	if p != nil {
		p(format, args...)
	}
}

// Execute runs the resolved campaign and derives the selected
// experiments. The result stream — and anything rendered from it — is
// a pure function of (Cfg, RC shape, specs, selection): byte-identical
// for every Workers and Parallel value, which is what makes Key-indexed
// caching of the rendered output exact.
func (res *Resolved) Execute(progress Progress) ([]Result, error) {
	parallel := res.Parallel
	if parallel < 1 {
		parallel = 1
	}
	switch res.Mode {
	case ModeTimeline:
		s := res.Schedule.Schedule()
		progress.printf("building world (%d servers, %d NAT clients) and running %d epochs × %d days, schedule %s (workers=%d)",
			res.Cfg.Servers, res.Cfg.NATClients, s.Epochs, s.DaysPerEpoch, res.Schedule.Spec(), res.RC.Workers)
		tr := core.RunTimeline(res.Cfg, res.RC, res.Schedule, core.TimelineOptions{})
		progress.printf("timeline complete (%d total RPCs)", tr.World.Net.TotalMessages())
		return RunTimeline(tr, res.Req.Only, parallel)
	case ModeDelta:
		progress.printf("building paired worlds (%d servers, %d NAT clients), what-if %s, observing %d days each (workers=%d)",
			res.Cfg.Servers, res.Cfg.NATClients, res.Req.WhatIf, res.RC.Days, res.RC.Workers)
		baseline, whatif := counterfactual.Observe(res.Cfg, res.RC, res.Interventions)
		progress.printf("paired observation complete (%d + %d total RPCs)",
			baseline.World.Net.TotalMessages(), whatif.World.Net.TotalMessages())
		return RunPaired(baseline, whatif,
			counterfactual.NamesOf(res.Interventions), res.Req.Only, parallel)
	default:
		progress.printf("building world (%d servers, %d NAT clients) and observing %d days (workers=%d)",
			res.Cfg.Servers, res.Cfg.NATClients, res.RC.Days, res.RC.Workers)
		o := core.Observe(scenario.NewWorld(res.Cfg), res.RC)
		progress.printf("observation complete (%d total RPCs)", o.World.Net.TotalMessages())
		return Run(o, res.Req.Only, parallel)
	}
}

// ExecuteJSONL is Execute rendered to the machine-readable JSONL byte
// stream — the exact bytes the run cache stores and the server serves,
// so a cache hit is byte-identical to a fresh run by construction.
func (res *Resolved) ExecuteJSONL(progress Progress) ([]byte, error) {
	results, err := res.Execute(progress)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := RenderJSONL(&buf, results); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// canonicalNames lower-cases, trims, dedupes and sorts a name list;
// empty input stays nil.
func canonicalNames(names []string) []string {
	seen := make(map[string]bool, len(names))
	var out []string
	for _, n := range names {
		n = strings.TrimSpace(strings.ToLower(n))
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Describe is the machine-readable registry row the server publishes:
// one experiment with its execution mode.
type Describe struct {
	Name        string `json:"name"`
	Section     string `json:"section"`
	Description string `json:"description"`
	// Mode is "plain", "-what-if" or "-timeline" — the CLI flag (and
	// request field) that runs the experiment.
	Mode string `json:"mode"`
}

// Catalog returns the full registry in registration order, in the
// machine-readable shape /v1/experiments serves.
func Catalog() []Describe {
	out := make([]Describe, 0, len(catalog))
	for _, e := range catalog {
		out = append(out, Describe{
			Name:        e.Name,
			Section:     e.Section,
			Description: e.Description,
			Mode:        e.Kind().String(),
		})
	}
	return out
}
