// Package campaign holds the shared observation-campaign test fixtures.
// It lives under simtest but in its own package because it imports
// internal/core: the parent simtest package must stay importable from
// the internal tests of every low-level package core builds on.
package campaign

import (
	"fmt"
	"sync"

	"tcsb/internal/core"
	"tcsb/internal/counterfactual"
	"tcsb/internal/scenario"
	"tcsb/internal/timeline"
)

// Shared observation-campaign fixtures. Building a world and observing
// it for several virtual days is by far the most expensive setup step a
// test can take. These helpers hold the two standard shapes — a small
// 1-day campaign for engine/determinism tests and a medium 4-day
// campaign for dataset-shape tests — and cache built observatories per
// (size, seed, workers) for the lifetime of the test process.
//
// Fixtures are deterministic: the same key always yields a bit-for-bit
// identical observatory, whatever the worker count.

// SmallConfig is the fast end-to-end scenario (scale 0.08) used by
// engine and determinism tests.
func SmallConfig(seed int64) scenario.Config {
	cfg := scenario.DefaultConfig().Scaled(0.08)
	cfg.Seed = seed
	return cfg
}

// SmallRunConfig is the 1-day campaign matching SmallConfig.
func SmallRunConfig() core.RunConfig {
	return core.RunConfig{
		Days: 1, CrawlsPerDay: 1, DailyCIDSample: 40,
		GatewayProbeRounds: 4, DNSLinkDomains: 50, ENSNames: 40,
	}
}

// mediumConfig is the dataset-shape scenario (scale 0.25) shared by the
// core figure tests and the benchmark fixture.
func mediumConfig(seed int64) scenario.Config {
	cfg := scenario.DefaultConfig().Scaled(0.25)
	cfg.Seed = seed
	return cfg
}

// mediumRunConfig is the 4-day campaign matching mediumConfig.
func mediumRunConfig() core.RunConfig {
	return core.RunConfig{
		Days: 4, CrawlsPerDay: 2, DailyCIDSample: 150,
		GatewayProbeRounds: 12, DNSLinkDomains: 250, ENSNames: 200,
	}
}

var (
	obsMu    sync.Mutex
	obsCache = map[string]*core.Observatory{}
)

func cachedObservatory(kind string, seed int64, workers int, cfg scenario.Config, rc core.RunConfig) *core.Observatory {
	key := fmt.Sprintf("%s/%d/%d", kind, seed, workers)
	obsMu.Lock()
	defer obsMu.Unlock()
	if o, ok := obsCache[key]; ok {
		return o
	}
	rc.Workers = workers
	o := core.Observe(scenario.NewWorld(cfg), rc)
	obsCache[key] = o
	return o
}

// MediumObservatory returns the process-cached medium campaign for the
// seed, built once with the given worker-pool size. Results are
// identical for every workers value; tests pass > 1 to exercise the
// concurrent engine (notably under -race).
func MediumObservatory(seed int64, workers int) *core.Observatory {
	return cachedObservatory("medium", seed, workers, mediumConfig(seed), mediumRunConfig())
}

// CompileSchedule parses a timeline spec and compiles it against the
// intervention registry, as experiments.Resolve does for -timeline.
func CompileSchedule(spec string) (*timeline.Compiled, error) {
	s, err := timeline.Parse(spec)
	if err != nil {
		return nil, err
	}
	return s.Compile(counterfactual.ScheduleResolver())
}
