// Command timeline demonstrates the longitudinal engine: one evolving
// world stepped through a multi-epoch schedule with a mid-run
// intervention, plus a warm-start checkpoint/resume proving the replay
// contract — the resumed run's epochs splice byte-identically onto the
// prefix's.
//
// Small scale, a few seconds:
//
//	go run ./examples/timeline
package main

import (
	"fmt"
	"log"
	"os"
	"runtime"

	"tcsb/internal/core"
	"tcsb/internal/counterfactual"
	"tcsb/internal/experiments"
	"tcsb/internal/scenario"
)

func main() {
	cfg := scenario.DefaultConfig().Scaled(0.15)
	cfg.Seed = 42
	rc := core.DefaultRunConfig()
	rc.Workers = runtime.NumCPU()

	// A fortnight with the Hydra fleet dissolving at epoch 5, a provider
	// departing at epoch 8 and a wave of arrivals at epoch 11.
	spec := "epochs=14;@5:hydra-dissolution;@8:depart:hetzner_online;@11:arrive:choopa:60"
	sch, err := counterfactual.CompileSchedule(spec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("=== timeline: %s ===\n\n", sch.Spec())
	tr, err := core.RunTimeline(cfg, rc, sch, core.TimelineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	results, err := experiments.RunTimeline(tr, nil, 2)
	if err != nil {
		log.Fatal(err)
	}
	if err := experiments.RenderText(os.Stdout, results); err != nil {
		log.Fatal(err)
	}

	// Warm start: stop at epoch 7, resume from the checkpoint, and show
	// the resumed epochs match the straight-through run's exactly.
	prefix, err := core.RunTimeline(cfg, rc, sch, core.TimelineOptions{Until: 7})
	if err != nil {
		log.Fatal(err)
	}
	resumed, err := core.RunTimeline(cfg, rc, sch, core.TimelineOptions{Resume: &prefix.Final})
	if err != nil {
		log.Fatal(err)
	}
	match := len(prefix.Epochs)+len(resumed.Epochs) == len(tr.Epochs)
	for i, e := range append(prefix.Epochs, resumed.Epochs...) {
		match = match && e.Digest == tr.Epochs[i].Digest
	}
	fmt.Printf("\ncheckpoint at epoch %d, resumed %d epochs; spliced digests match straight-through: %v\n",
		prefix.Final.EpochsDone, len(resumed.Epochs), match)
}
