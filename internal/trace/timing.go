package trace

import (
	"tcsb/internal/netsim"
	"tcsb/internal/stats"
)

// Phase labels one timed operation family in the latency pipeline.
type Phase uint8

const (
	// PhaseGateway times one public-gateway fetch (HTTP request → cache
	// or DHT resolution → Bitswap transfer), including any reprovide.
	PhaseGateway Phase = iota
	// PhaseLookup times one direct DHT retrieval by a peer.
	PhaseLookup
	// PhaseCrawl times one full crawl (cumulative link latency across
	// all sweep waves).
	PhaseCrawl
	// PhaseProbe times one gateway probe round (plant + fetch).
	PhaseProbe
	phaseCount
)

// String returns the phase's experiment label.
func (p Phase) String() string {
	switch p {
	case PhaseGateway:
		return "gateway"
	case PhaseLookup:
		return "lookup"
	case PhaseCrawl:
		return "crawl"
	case PhaseProbe:
		return "probe"
	}
	return "unknown"
}

// Phases lists all timing phases in fixed report order.
func Phases() []Phase {
	return []Phase{PhaseGateway, PhaseLookup, PhaseCrawl, PhaseProbe}
}

// TimingSink folds per-phase virtual durations (drawn by the netsim
// link model) into bounded percentile sketches, following the same
// effect-lane protocol as Pipeline: during a concurrent phase each lane
// buffers (phase, µs) samples locally, and the merge replays them into
// the root sketches in fixed lane order — so every quantile the latency
// experiments report is byte-identical for every worker count.
//
// With retention enabled (RetainTrace campaigns) the sink additionally
// keeps the raw samples per phase, which is what the sketch-vs-exact
// equivalence invariant checks against; streaming campaigns keep only
// the fixed-size sketches.
type TimingSink struct {
	sketches [phaseCount]stats.Sketch
	retain   bool
	raw      [phaseCount][]float64
}

// NewTimingSink creates a sink; retain keeps raw per-phase samples
// alongside the sketches (test/equivalence use only — unbounded).
func NewTimingSink(retain bool) *TimingSink {
	return &TimingSink{retain: retain}
}

// timingSample is one buffered lane observation.
type timingSample struct {
	phase Phase
	us    int64
}

// timingLane is the lane-local buffer of a TimingSink during a
// concurrent phase.
type timingLane struct {
	samples []timingSample
}

// NewLane creates an empty lane buffer (netsim.Lane).
func (s *TimingSink) NewLane() any { return &timingLane{} }

// MergeLane replays a lane buffer into the sink's sketches in emission
// order and resets it for reuse (netsim.Lane).
func (s *TimingSink) MergeLane(lane any) {
	l := lane.(*timingLane)
	for _, smp := range l.samples {
		s.observe(smp.phase, smp.us)
	}
	l.samples = l.samples[:0]
}

// Record adds one phase duration (µs of virtual link latency) through
// the caller's effect lane: buffered when env is a lane, folded
// immediately in serial mode. A nil sink ignores the sample, so callers
// need no wiring guards.
func (s *TimingSink) Record(env *netsim.Effects, p Phase, us int64) {
	if s == nil {
		return
	}
	if env == nil {
		s.observe(p, us)
		return
	}
	l := env.Lane(s).(*timingLane)
	l.samples = append(l.samples, timingSample{phase: p, us: us})
}

func (s *TimingSink) observe(p Phase, us int64) {
	s.sketches[p].Observe(float64(us))
	if s.retain {
		s.raw[p] = append(s.raw[p], float64(us))
	}
}

// Sketch returns the phase's quantile sketch (read-only use).
func (s *TimingSink) Sketch(p Phase) *stats.Sketch {
	if s == nil {
		return &stats.Sketch{}
	}
	return &s.sketches[p]
}

// Raw returns the retained samples for a phase (nil unless the sink was
// built with retention).
func (s *TimingSink) Raw(p Phase) []float64 {
	if s == nil {
		return nil
	}
	return s.raw[p]
}
