// Package tcsb is a from-scratch Go reproduction of "The Cloud Strikes
// Back: Investigating the Decentralization of IPFS" (Balduf et al., IMC
// 2023, arXiv:2309.16203).
//
// The repository contains a deterministic simulator of the IPFS network
// (Kademlia DHT with server/client roles, Bitswap, circuit relays, HTTP
// gateways, churn and IP rotation), offline substitutes for the study's
// commercial data sources (cloud-IP and geolocation databases, DNS zone
// data, passive DNS, Ethereum event logs), re-implementations of every
// measurement tool the paper used (DHT crawler, Bitswap monitor, Hydra
// booster, exhaustive provider-record collector, gateway prober, DNSLink
// scanner, ENS extractor), and a registry-driven experiment engine
// (internal/experiments) whose parallel runner regenerates every table
// and figure of the paper's evaluation from one shared observation
// campaign. The campaign itself is concurrent and deterministic: world
// ticks execute in fixed actor shards with splitmix-derived per-shard
// RNG streams, RPC side effects buffer into per-lane queues merged in
// shard order (internal/netsim Effects/Fanout), and crawls, provider-
// record collection and the analysis stages fan out over a bounded
// worker pool — byte-identical output for every -workers value.
//
// Observation streams: the monitoring vantage points (Bitswap monitor,
// Hydra logger) fold every event into bounded per-vantage statistics
// (internal/trace Sink/Accum/Pipeline, fed through the same effect
// lanes) instead of materializing the raw trace, which keeps memory
// bounded by distinct identifiers rather than traffic volume. On top of
// that, identifiers themselves are interned into dense uint32 handles
// (internal/intern: PeerH/CIDH/AddrH, deterministic append-only tables
// whose digest is pinned across worker counts), and the hot stores are
// keyed by those handles instead of by identifiers — which makes the
// scale.* scenario family (-preset scale.2x/4x/10x/25x, Config.Scaled
// cloning hooks) routine under bounded RSS. Raw event
// logs are kept only in worlds built with scenario.Config.RetainTrace,
// a test switch; streaming and batch results are pinned equal by the
// sink-vs-log equivalence property in internal/simtest/invariants.
//
// A counterfactual layer (internal/counterfactual) turns the calibrated
// replay into an instrument: named interventions — hydra-dissolution,
// aws-outage, gateway-surge, no-cloud-providers, churn-2x, composable
// via -what-if — rewrite the scenario before the campaign runs, a
// paired runner observes baseline and intervention worlds from one
// worker budget, and the whatif.* delta experiments render
// baseline/what-if/delta rows for the paper's reliance claims. The
// conservation laws no intervention may break are property-tested in
// internal/simtest/invariants.
//
// An adversarial family (internal/attack) executes the paper's
// attack-surface map through the same machinery: attack.sybil-eclipse,
// attack.provider-spam, attack.gateway-stampede and
// attack.targeted-censorship register as ordinary interventions (-what-if
// attack.*, @E:attack.* timeline epochs, the timeline.siege preset),
// tunable via the -attack-params grammar. Each attack carries an
// invariant contract: the attack-surface invariants it must break are
// asserted as expected failures — a contained attack fails the suite —
// while the rest must hold, over seeds 1–5 under the race detector.
//
// A network-realism layer (internal/netsim LinkProfile) adds a
// deterministic per-link impairment model: every RPC crosses a
// (cloud/residential × cloud/residential) link pair and draws a delay ±
// jitter and a loss verdict from lane-seeded streams, accruing virtual
// (never wall) time. Profiles parse from a canonical grammar
// ("cloud-cloud=5ms±2;resi-cloud=40ms±15,loss=0.02") with named presets
// — net.ideal (identity, bit-identical to the unimpaired engine),
// net.measured, net.degraded — selected via -net-profile or
// scenario.Config.NetProfile, and schedulable as what-ifs and timeline
// epochs (@E:net.degraded). Per-phase durations fold into bounded
// percentile sketches (internal/stats.Sketch via trace.TimingSink),
// rendered by the latency.* experiments; the conservation laws (loss
// accounting, virtual-clock monotonicity, sketch-vs-exact equivalence)
// are property-tested in internal/simtest/invariants.
//
// A timeline layer (internal/timeline) makes time a first-class axis:
// a campaign becomes a sequence of epochs over one evolving world,
// driven by a declarative schedule (-timeline
// "epochs=14;@5:hydra-dissolution", or the timeline.* presets) whose
// events — provider arrivals and departures, churn drift, any
// registered intervention — fire at epoch boundaries. core.RunTimeline
// reuses the sharded worker pool and streaming sinks per epoch and the
// timeline.* experiments render epoch-tagged rows, among them each
// boundary's scenario.World.Snapshot state digest; an epoch's crawls
// and records are dropped at its end, and the invariant suite holds at
// every epoch boundary.
//
// A campaign service (cmd/tcsb-server) puts the engine behind a
// long-running HTTP/JSON API: the experiments registry and preset
// families served machine-readable, single runs (POST /v1/runs) and
// parameter sweeps (POST /v1/sweeps — seeds × scales × presets × net
// profiles × what-if/timeline cells) executed by a bounded campaign
// fleet under one worker budget. The CLI and the server reduce their
// inputs to one canonical core.RunRequest resolved in one place
// (experiments.Resolve), which keys a content-addressed run cache
// (internal/runcache): determinism makes hits exact — byte-identical
// to a fresh run — and concurrent identical requests coalesce into a
// single campaign. Invalid input is an exit-2 diagnostic or an HTTP
// 4xx, never a panic.
//
// A longitudinal layer (internal/analyze) lets runs outlive the
// process: -archive-dir persists each campaign as a run archive — the
// exact JSONL byte stream the run cache stores plus a manifest of the
// canonical request — written by the CLI after rendering and by the
// server on every cache fill (which also primes the cache back from
// the archive at boot, so a restart serves prior runs as hits). The
// analyze-only mode (tcsb-experiments -analyze, GET|POST /v1/analyze)
// runs no simulation: it re-ingests the archive, groups runs by
// canonical request shape, computes cross-run deltas and per-epoch
// drift slopes, and alerts against the pinned rules in
// expectations.json (absolute bounds, relative-change thresholds,
// drift ceilings; CLI exit 1 on a breach). The report is
// byte-deterministic for identical archive sets.
//
// See README.md for a guided tour, DESIGN.md for the system inventory and
// substitution rationale, and EXPERIMENTS.md for paper-vs-measured
// results (regenerable via `go run ./cmd/tcsb-experiments -json`). The
// experiment registry also drives the benchmarks in bench_test.go:
//
//	go test -bench=BenchmarkExperiments -benchmem .
//	go test -bench=BenchmarkExperimentEngine .
package tcsb
