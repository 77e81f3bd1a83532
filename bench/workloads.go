package main

import (
	"encoding/json"
	"fmt"
	"strconv"

	"tcsb/internal/core"
)

// Load shape. The host has two cores: every CLI child runs with two
// campaign workers and two derivation workers, the server splits two
// workers over two fleet slots, and the serve client keeps two
// connections in a closed loop.
const (
	cliWorkers   = 2
	serveWorkers = 2
	serveFleet   = 2
	serveClients = 2
	// servePerRun is the campaign workers one server run gets.
	servePerRun = serveWorkers / serveFleet
)

// Per-run counts that do not depend on the measured window.
const (
	// setups is how many fresh world builds (CLI) or server restarts
	// (serve) one run times; setup_s is their median.
	setups = 5
	// serveFill is how many distinct runs a serve run computes and
	// archives before its window: the archive every restart primes
	// from, and the keys serve-hit repeats.
	serveFill = 16
	// tracedHits is how many cache hits one traced serve-hit pass replays.
	tracedHits = 400
)

// worldsPerRun is how many worlds a CLI run cycles through: its i-th
// operation runs the workload's request for worldSeed(seed, i mod
// worldsPerRun). The work differs by a few percent from seed to seed
// (paper's RPC count over ten seeds: quartile distance 4% of the median),
// and averaging over several worlds keeps that out of the spread between
// runs.
const worldsPerRun = 4

func worldSeed(seed int64, j int) int64 { return seed*worldsPerRun + int64(j) }

// checkedFills are the fill requests whose cold responses a serve run
// compares with another program's output for the same request.
var checkedFills = []int{0, serveFill - 1}

// workload is one set of inputs the benchmark runs. A CLI workload runs
// tcsb-experiments on one request; a serve workload drives tcsb-server.
type workload struct {
	name string
	// request is the campaign a CLI workload runs for a seed.
	request func(seed int64) core.RunRequest
	// serve marks a server workload; hits makes its window repeat the
	// archived keys instead of sending new ones.
	serve, hits bool
}

// The sizes keep one CLI operation near a second on a 2-vCPU host, so a
// run holds enough operations for a steady median, and every workload
// still builds, ticks, crawls, collects and derives.
var workloads = []workload{
	{name: "paper", request: func(seed int64) core.RunRequest {
		return core.RunRequest{Seed: seed, Scale: 0.25, Days: 2}
	}},
	{name: "whatif", request: func(seed int64) core.RunRequest {
		return core.RunRequest{Seed: seed, Scale: 0.25, Days: 2, WhatIf: "hydra-dissolution"}
	}},
	{name: "timeline", request: func(seed int64) core.RunRequest {
		return core.RunRequest{Seed: seed, Scale: 0.1, Timeline: "timeline.dissolution", NetProfile: "net.measured"}
	}},
	{name: "serve-miss", serve: true},
	{name: "serve-hit", serve: true, hits: true},
}

func lookupWorkload(name string) (workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// serveRequest is the i-th distinct request of a serve run: a small
// plain campaign, so a miss costs a fraction of a second.
func serveRequest(seed int64, i int) core.RunRequest {
	return core.RunRequest{Seed: seed*1000 + int64(i), Scale: 0.1, Days: 1}
}

// fillBodies are the request bodies of a serve run's serveFill fill runs.
func fillBodies(seed int64) [][]byte {
	bodies := make([][]byte, serveFill)
	for i := range bodies {
		bodies[i] = requestBody(serveRequest(seed, i))
	}
	return bodies
}

func requestBody(req core.RunRequest) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		// RunRequest holds only scalars, strings and a string slice.
		panic(err)
	}
	return b
}

// cliArgs renders a request as tcsb-experiments flags with JSONL output.
func cliArgs(req core.RunRequest, workers int) []string {
	args := []string{"-seed", strconv.FormatInt(req.Seed, 10), "-json",
		"-workers", strconv.Itoa(workers), "-parallel", strconv.Itoa(workers)}
	if req.Scale != 0 {
		args = append(args, "-scale", strconv.FormatFloat(req.Scale, 'g', -1, 64))
	}
	if req.Days != 0 {
		args = append(args, "-days", strconv.Itoa(req.Days))
	}
	if req.WhatIf != "" {
		args = append(args, "-what-if", req.WhatIf)
	}
	if req.Timeline != "" {
		args = append(args, "-timeline", req.Timeline)
	}
	if req.NetProfile != "" {
		args = append(args, "-net-profile", req.NetProfile)
	}
	return args
}
