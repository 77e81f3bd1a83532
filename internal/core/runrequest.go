package core

// RunRequest is the canonical description of one cacheable run: the
// flag surface of cmd/tcsb-experiments and the request body of
// cmd/tcsb-server expressed as one JSON-serializable struct. The CLI
// and the server both reduce their inputs to a RunRequest, normalize it
// (experiments.Resolve canonicalizes every spec to its grammar fixed
// point), and derive the content-addressed cache key from Key — so the
// two entry points resolve *identical* keys for identical work, and a
// run primed by one is a cache hit for the other.
//
// Key covers everything the engine's output is a function of: the full
// scenario.Config digest (population, behaviour, attack switches, link
// profile), the observation shape (days, crawls/day, sample sizes),
// the what-if or timeline spec, and the experiment selection. It
// deliberately EXCLUDES Workers and Parallel: output is byte-identical
// for every value of both (the engine's pinned determinism guarantee),
// so runs differing only in concurrency share one cache entry.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"tcsb/internal/scenario"
)

// RunRequest names one run. The zero value of every optional field
// means "default": Scale 0 → 1.0, Days 0 → DefaultRunConfig().Days,
// Workers/Parallel 0 → caller's default pool. Specs are raw user input
// until experiments.Resolve canonicalizes them in place.
type RunRequest struct {
	// Seed drives all randomness (default 0 is a valid seed).
	Seed int64 `json:"seed"`
	// Scale multiplies the population (0 = 1.0). Composes with Preset.
	Scale float64 `json:"scale,omitempty"`
	// Preset names a scale.* scenario preset.
	Preset string `json:"preset,omitempty"`
	// Days is the observation-campaign length. Must be unset in
	// timeline mode, where the schedule owns the calendar.
	Days int `json:"days,omitempty"`
	// NetProfile is a net.* preset name or raw link-profile spec.
	NetProfile string `json:"netProfile,omitempty"`
	// AttackParams tunes the attack.* interventions (attack grammar).
	AttackParams string `json:"attackParams,omitempty"`
	// WhatIf is a comma-separated intervention list; selects the paired
	// counterfactual mode. Mutually exclusive with Timeline/Epochs.
	WhatIf string `json:"whatIf,omitempty"`
	// Timeline is a schedule spec or timeline.* preset name; selects
	// the longitudinal mode.
	Timeline string `json:"timeline,omitempty"`
	// Epochs overrides the schedule's epoch count (alone it means a
	// drift-free "epochs=N" schedule). Folded into Timeline by
	// normalization, after which it reads 0.
	Epochs int `json:"epochs,omitempty"`
	// Only filters the experiment selection (empty = every experiment
	// of the mode). Normalization lower-cases, dedupes and sorts.
	Only []string `json:"only,omitempty"`
	// Workers bounds the campaign goroutine pool. Not part of Key.
	Workers int `json:"workers,omitempty"`
	// Parallel bounds concurrent experiment derivations. Not part of Key.
	Parallel int `json:"parallel,omitempty"`
}

// Validate checks the structural bounds that need no registry access:
// negative or zero-where-positive-required values, and the mode
// exclusions. Spec grammar and name resolution happen in
// experiments.Resolve, which calls this first.
func (r RunRequest) Validate() error {
	if r.Scale < 0 {
		return fmt.Errorf("scale %v is negative; want > 0 (0 means default 1.0)", r.Scale)
	}
	if r.Days < 0 {
		return fmt.Errorf("days %d is negative; want >= 1 (0 means default)", r.Days)
	}
	if r.Epochs < 0 {
		return fmt.Errorf("epochs %d is negative; want >= 1 (0 means the schedule's own count)", r.Epochs)
	}
	if r.Workers < 0 {
		return fmt.Errorf("workers %d is not positive; want >= 1 (0 means default)", r.Workers)
	}
	if r.Parallel < 0 {
		return fmt.Errorf("parallel %d is not positive; want >= 1 (0 means default)", r.Parallel)
	}
	if r.WhatIf != "" && (r.Timeline != "" || r.Epochs > 0) {
		return fmt.Errorf("whatIf and timeline/epochs are mutually exclusive (a schedule can fire interventions at epochs)")
	}
	if r.IsTimeline() && r.Days != 0 {
		return fmt.Errorf("days is owned by the schedule in timeline mode; use a days= clause in the spec instead")
	}
	return nil
}

// IsTimeline reports whether the request selects the longitudinal mode.
func (r RunRequest) IsTimeline() bool { return r.Timeline != "" || r.Epochs > 0 }

// RunConfig derives the campaign RunConfig: the default observation
// shape with the request's days and workers applied. Timeline requests
// keep the default Days (the schedule supplies the calendar).
func (r RunRequest) RunConfig() RunConfig {
	rc := DefaultRunConfig()
	if r.Days > 0 {
		rc.Days = r.Days
	}
	if r.Workers > 0 {
		rc.Workers = r.Workers
	}
	return rc
}

// Key is the content-addressed cache key: a sha256 over the resolved
// config's digest, the observation shape, the canonical specs and the
// experiment selection. Call it on a normalized request with the
// config experiments.Resolve built — un-normalized specs hash as
// written and will miss entries primed under the canonical spelling.
//
// Run archives are named by these keys, so the hashed stream must never
// change. Line by line it reads:
//
//	cfg=<config digest>
//	days=N crawls=N sample=N probes=N dnslink=N ens=N
//	whatif="<spec>"
//	timeline="<spec>" epochs=N
//	only="<names, comma-joined>"
func (r RunRequest) Key(cfg scenario.Config) string {
	rc := r.RunConfig()
	only := append([]string(nil), r.Only...)
	sort.Strings(only)
	b := append(make([]byte, 0, 512), "cfg="...)
	b = append(b, cfg.Digest()...)
	b = appendNum(b, "\ndays=", rc.Days)
	b = appendNum(b, " crawls=", rc.CrawlsPerDay)
	b = appendNum(b, " sample=", rc.DailyCIDSample)
	b = appendNum(b, " probes=", rc.GatewayProbeRounds)
	b = appendNum(b, " dnslink=", rc.DNSLinkDomains)
	b = appendNum(b, " ens=", rc.ENSNames)
	b = appendQuoted(b, "\nwhatif=", r.WhatIf)
	b = appendQuoted(b, "\ntimeline=", r.Timeline)
	b = appendNum(b, " epochs=", r.Epochs)
	b = appendQuoted(b, "\nonly=", strings.Join(only, ","))
	sum := sha256.Sum256(append(b, '\n'))
	return hex.EncodeToString(sum[:])
}

func appendNum(b []byte, label string, n int) []byte {
	return strconv.AppendInt(append(b, label...), int64(n), 10)
}

func appendQuoted(b []byte, label, s string) []byte {
	return strconv.AppendQuote(append(b, label...), s)
}
