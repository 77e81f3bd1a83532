package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// The layer taxonomy. Each layer is named after the package whose
// public call the traced drivers time; the calls are beside the names.
const (
	layerResolve  = "experiments.resolve" // experiments.Resolve
	layerBuild    = "scenario.build"      // scenario.NewWorld, counterfactual.BuildWorld
	layerPopulate = "scenario.populate"   // World.PopulateDNSLink + PopulateENS
	layerTick     = "scenario.tick"       // World.StepTick, ticks 0-22 of a day
	layerRollover = "scenario.rollover"   // World.StepTick on a day's last tick
	layerCrawl    = "crawler.crawl"       // World.Crawl
	layerCollect  = "provrecords.collect" // Monitor.SampleDay + Collector.CollectDayParallel
	layerCensus   = "gwprobe.census"      // Prober.Census + GatewayPeerSet
	layerENS      = "ens.collect"         // ens.Extract + provider collection
	layerDNSLink  = "dnslink.scan"        // Scanner.Scan
	layerApply    = "timeline.apply"      // the epoch's schedule actions
	layerSnapshot = "scenario.snapshot"   // World.Snapshot at an epoch boundary
	layerDerive   = "experiments.derive"  // experiments.Run / RunPaired
	layerRender   = "experiments.render"  // experiments.RenderJSONL
	layerDecode   = "server.decode"       // strict JSON decode of a request body
	layerCacheGet = "runcache.get"        // Cache.Get
	layerCachePut = "runcache.put"        // Cache.Put
	layerArchive  = "analyze.archive"     // analyze.WriteArchive
	layerPrime    = "analyze.prime"       // LoadArchive + Resolve + Cache.Prime
)

// heavyLayers do the campaign's work in every workload; they report
// cpu, allocation and RPC counts besides wall time and calls.
var heavyLayers = []string{layerBuild, layerTick, layerRollover, layerCrawl, layerCollect}

// otherLayer sums every layer that is neither heavy nor experiments.resolve.
// Those layers are absent from some workloads (timeline has no entry-point
// stages, only timeline has epoch actions, only serve touches the cache),
// so the per-layer metric set reports them as one bucket; the full
// per-layer table is in the -out record and on stderr.
const otherLayer = "other"

// span is one timed call into a layer. Spans stay in memory and are
// written to -trace-out when the run ends.
type span struct {
	Name string `json:"name"`
	// Run names the pass, lane or request the span belongs to.
	Run string `json:"run"`
	// Parent is the index of the enclosing pass span, -1 for a pass.
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	CPU    float64 `json:"cpu_s"`
	Alloc  uint64  `json:"alloc_bytes"`
	RPCs   int64   `json:"rpcs"`
	// Overhead is, on a pass span, the recorder's own time inside it.
	Overhead float64 `json:"overhead_s,omitempty"`
}

func (s span) wall() float64 { return s.End - s.Start }

// recorder times layer calls made by the traced drivers. It is not safe
// for concurrent use: the drivers call layers one at a time.
type recorder struct {
	t0       time.Time
	spans    []span
	pass     int
	run      string
	passCPU  float64
	overhead time.Duration
	sample   []metrics.Sample
}

func newRecorder() *recorder {
	return &recorder{
		t0:     time.Now(),
		pass:   -1,
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

// setRun labels the spans recorded from now on.
func (r *recorder) setRun(run string) { r.run = run }

// beginPass opens a pass: one full replay of a workload's unit of work.
// Layer spans recorded until endPass belong to it.
func (r *recorder) beginPass(run string) {
	r.run = run
	r.pass = len(r.spans)
	r.overhead = 0
	r.passCPU = cpuSeconds()
	r.spans = append(r.spans, span{Name: "pass", Run: run, Parent: -1, Start: r.since(time.Now())})
}

func (r *recorder) endPass() {
	p := &r.spans[r.pass]
	p.End = r.since(time.Now())
	p.CPU = cpuSeconds() - r.passCPU
	p.Overhead = r.overhead.Seconds()
	r.pass = -1
}

// do runs f as one call into layer name. msgs, when non-nil, reads the
// RPC counter of the network f works on.
func (r *recorder) do(name string, msgs func() int64, f func()) {
	enter := time.Now()
	cpu0, alloc0 := cpuSeconds(), r.allocs()
	var rpc0 int64
	if msgs != nil {
		rpc0 = msgs()
	}
	start := time.Now()
	f()
	end := time.Now()
	s := span{Name: name, Run: r.run, Parent: r.pass, Start: r.since(start), End: r.since(end)}
	if msgs != nil {
		s.RPCs = msgs() - rpc0
	}
	s.CPU = cpuSeconds() - cpu0
	s.Alloc = r.allocs() - alloc0
	r.spans = append(r.spans, s)
	r.overhead += start.Sub(enter) + time.Since(end)
}

func (r *recorder) since(t time.Time) float64 { return t.Sub(r.t0).Seconds() }

func (r *recorder) allocs() uint64 {
	metrics.Read(r.sample)
	return r.sample[0].Value.Uint64()
}

// cpuSeconds is the process's user+system time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// layerTotals is one layer's sum over one pass.
type layerTotals struct {
	Wall  float64 `json:"wall_s"`
	CPU   float64 `json:"cpu_s"`
	Alloc uint64  `json:"alloc_bytes"`
	Calls int     `json:"calls"`
	RPCs  int64   `json:"rpcs"`
}

func (t *layerTotals) add(s span) {
	t.Wall += s.wall()
	t.CPU += s.CPU
	t.Alloc += s.Alloc
	t.Calls++
	t.RPCs += s.RPCs
}

// passTotals is the per-layer breakdown of one pass.
type passTotals struct {
	Wall     float64                 `json:"wall_s"`
	CPU      float64                 `json:"cpu_s"`
	Spans    int                     `json:"spans"`
	Overhead float64                 `json:"overhead_s"`
	Layers   map[string]*layerTotals `json:"layers"`
	// Lanes sums span wall time per run label: per lane in whatif, per
	// request in serve.
	Lanes map[string]float64 `json:"lane_wall_s"`
}

// attributed is the part of the pass wall covered by layer spans.
func (p passTotals) attributed() float64 {
	var sum float64
	for _, t := range p.Layers {
		sum += t.Wall
	}
	return sum
}

// passes folds the recorded spans into one breakdown per pass.
func (r *recorder) passes() []passTotals {
	var out []passTotals
	idx := map[int]int{}
	for i, s := range r.spans {
		if s.Parent == -1 {
			idx[i] = len(out)
			out = append(out, passTotals{Wall: s.wall(), CPU: s.CPU, Overhead: s.Overhead,
				Layers: map[string]*layerTotals{}, Lanes: map[string]float64{}})
			continue
		}
		p := &out[idx[s.Parent]]
		t := p.Layers[s.Name]
		if t == nil {
			t = &layerTotals{}
			p.Layers[s.Name] = t
		}
		t.add(s)
		p.Spans++
		p.Lanes[s.Run] += s.wall()
	}
	return out
}

// writeSpans writes every recorded span as one JSON document.
func (r *recorder) writeSpans(path string) error {
	b, err := json.MarshalIndent(struct {
		Spans []span `json:"spans"`
	}{r.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// layerNames returns the layer names seen in ps, sorted.
func layerNames(ps []passTotals) []string {
	seen := map[string]bool{}
	for _, p := range ps {
		for n := range p.Layers {
			seen[n] = true
		}
	}
	var out []string
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
