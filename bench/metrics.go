package main

import (
	"math"
	"sort"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a run reports with -trace 0, for every
// workload. An operation is one campaign result obtained: one
// tcsb-experiments run (CLI workloads) or one POST /v1/runs (serve).
var endToEnd = []metricDef{
	{"p50_ms", "ms"},        // median operation latency
	{"ops_per_s", "1/s"},    // operations completed per second of the window
	{"cpu_ms_per_op", "ms"}, // the program's user+system CPU per operation
	{"peak_rss_mb", "MB"},   // the program's peak resident set
	{"setup_s", "s"},        // median fresh world build (CLI) or primed server restart (serve)
}

// perLayer are the metrics a run reports with -trace 1, for every
// workload: per-pass totals, medians over the passes of the window.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range heavyLayers {
		out = append(out,
			metricDef{l + ".wall_s", "s"}, metricDef{l + ".cpu_s", "s"}, metricDef{l + ".alloc_mb", "MB"},
			metricDef{l + ".calls", "count"}, metricDef{l + ".rpcs", "count"})
	}
	return append(out,
		metricDef{layerResolve + ".wall_s", "s"}, metricDef{layerResolve + ".calls", "count"},
		metricDef{otherLayer + ".wall_s", "s"}, metricDef{otherLayer + ".cpu_s", "s"},
		metricDef{otherLayer + ".alloc_mb", "MB"}, metricDef{otherLayer + ".calls", "count"},
		metricDef{"trace.wall_s", "s"}, metricDef{"trace.cpu_s", "s"},
		metricDef{"trace.unattributed_pct", "%"}, metricDef{"trace.overhead_pct", "%"},
		metricDef{"trace.spans", "count"})
}

// layerRow is one layer of the full per-layer table (medians over passes).
type layerRow struct {
	Name    string  `json:"name"`
	Wall    float64 `json:"wall_s"`
	Share   float64 `json:"share"`
	CPU     float64 `json:"cpu_s"`
	AllocMB float64 `json:"alloc_mb"`
	Calls   int     `json:"calls"`
	RPCs    int64   `json:"rpcs"`
	// CallP50 is the median duration of one call, in milliseconds.
	CallP50 float64 `json:"call_p50_ms"`
}

// metricKey maps a layer to the name its per-layer metrics carry.
func metricKey(layer string) string {
	if layer == layerResolve {
		return layer
	}
	for _, h := range heavyLayers {
		if layer == h {
			return layer
		}
	}
	return otherLayer
}

// normalized scales every pass's times by the run's host-speed factor k.
func normalized(ps []passTotals, k float64) []passTotals {
	out := make([]passTotals, len(ps))
	for i, p := range ps {
		q := p
		q.Wall, q.CPU, q.Overhead = k*p.Wall, k*p.CPU, k*p.Overhead
		q.Layers = map[string]*layerTotals{}
		for n, t := range p.Layers {
			u := *t
			u.Wall, u.CPU = k*t.Wall, k*t.CPU
			q.Layers[n] = &u
		}
		q.Lanes = map[string]float64{}
		for n, w := range p.Lanes {
			q.Lanes[n] = k * w
		}
		out[i] = q
	}
	return out
}

// layerMetrics folds a traced run's passes into the per-layer metrics
// and the full per-layer table, with host-normalized times. Counts must
// repeat exactly across passes; a count that does not is a failure.
func layerMetrics(o *outcome) (map[string]metric, []layerRow) {
	ps := normalized(o.rec.passes(), o.scale)
	values := make([]map[string]float64, len(ps))
	for i, p := range ps {
		v := map[string]float64{}
		for name, t := range p.Layers {
			k := metricKey(name)
			v[k+".wall_s"] += t.Wall
			v[k+".cpu_s"] += t.CPU
			v[k+".alloc_mb"] += float64(t.Alloc) / (1 << 20)
			v[k+".calls"] += float64(t.Calls)
			v[k+".rpcs"] += float64(t.RPCs)
		}
		v["trace.wall_s"] = p.Wall
		v["trace.cpu_s"] = p.CPU
		v["trace.unattributed_pct"] = 100 * (p.Wall - p.attributed()) / p.Wall
		v["trace.overhead_pct"] = 100 * p.Overhead / p.Wall
		v["trace.spans"] = float64(p.Spans)
		values[i] = v
	}
	out := map[string]metric{}
	for _, d := range perLayer() {
		var xs []float64
		for _, v := range values {
			xs = append(xs, v[d.name])
		}
		if d.unit == "count" {
			for _, x := range xs[1:] {
				if x != xs[0] {
					o.fail("%s is %v in one pass and %v in another; counts must repeat", d.name, xs[0], x)
					break
				}
			}
			out[d.name] = metric{xs[0], d.unit}
			continue
		}
		out[d.name] = metric{median(xs), d.unit}
	}
	return out, layerTable(o.rec, ps, o.scale)
}

// layerTable is every layer's median per-pass totals, slowest first.
func layerTable(rec *recorder, ps []passTotals, k float64) []layerRow {
	callWalls := map[string][]float64{}
	for _, s := range rec.spans {
		if s.Parent != -1 {
			callWalls[s.Name] = append(callWalls[s.Name], k*s.wall())
		}
	}
	var rows []layerRow
	for _, name := range layerNames(ps) {
		var wall, share, cpu, alloc []float64
		var calls int
		var rpcs int64
		for _, p := range ps {
			t := p.Layers[name]
			if t == nil {
				t = &layerTotals{}
			}
			wall = append(wall, t.Wall)
			share = append(share, t.Wall/p.Wall)
			cpu = append(cpu, t.CPU)
			alloc = append(alloc, float64(t.Alloc)/(1<<20))
			calls, rpcs = t.Calls, t.RPCs
		}
		rows = append(rows, layerRow{
			Name: name, Wall: median(wall), Share: median(share), CPU: median(cpu),
			AllocMB: median(alloc), Calls: calls, RPCs: rpcs,
			CallP50: 1000 * median(callWalls[name]),
		})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Wall > rows[j].Wall })
	return rows
}

// pairIdle is, per pass of a paired run, how long the faster lane would
// wait for the slower one when both run at once: the lanes' span-time
// difference. It returns the median over passes.
func pairIdle(ps []passTotals) float64 {
	var xs []float64
	for _, p := range ps {
		a, okA := p.Lanes[laneBaseline]
		b, okB := p.Lanes[laneWhatIf]
		if okA && okB {
			xs = append(xs, math.Abs(a-b))
		}
	}
	return median(xs)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
