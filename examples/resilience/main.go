// Resilience: crawl a simulated DHT, build the topology graph, and run
// the paper's node-removal experiment (Fig. 8): random failures vs a
// targeted attack on the highest-degree nodes, with a 95% confidence
// interval over repeated random runs.
package main

import (
	"fmt"
	"math/rand"

	"tcsb/internal/graph"
	"tcsb/internal/report"
	"tcsb/internal/scenario"
	"tcsb/internal/stats"
)

func main() {
	cfg := scenario.DefaultConfig().Scaled(0.3)
	cfg.Seed = 17
	w := scenario.NewWorld(cfg)
	w.RunDays(1)

	snap := w.Crawl(1)
	g := graph.FromSnapshot(snap)
	fmt.Printf("crawled graph: %d peers (%d crawlable), %d directed edges\n\n",
		g.N(), g.NumCrawlable(), g.Edges())

	// Degree distribution (Fig. 7).
	outs := g.OutDegrees()
	ins := g.InDegrees()
	dt := &report.Table{Title: "Degree distribution (paper Fig. 7)", Columns: []string{"metric", "value"}}
	dt.AddRow("out-degree p10", fmt.Sprintf("%.0f", stats.Percentile(outs, 10)))
	dt.AddRow("out-degree median", fmt.Sprintf("%.0f", stats.Percentile(outs, 50)))
	dt.AddRow("out-degree p90", fmt.Sprintf("%.0f", stats.Percentile(outs, 90)))
	dt.AddRow("in-degree p90", fmt.Sprintf("%.0f", stats.Percentile(ins, 90)))
	dt.AddRow("in-degree max", fmt.Sprintf("%.0f", stats.Percentile(ins, 100)))
	fmt.Println(dt)

	adj := g.Undirected()
	fractions := []float64{0.1, 0.3, 0.5, 0.7, 0.9}

	// Random removals: 10 repetitions with CI.
	rng := rand.New(rand.NewSource(1))
	samples := make([][]float64, len(fractions))
	for rep := 0; rep < 10; rep++ {
		curve := graph.RemovalCurve(adj, graph.RandomOrder(g.N(), rng))
		for i, v := range graph.SampleCurve(curve, fractions) {
			samples[i] = append(samples[i], v)
		}
	}
	targeted := graph.SampleCurve(graph.RemovalCurve(adj, graph.TargetedOrder(adj)), fractions)

	t := &report.Table{
		Title:   "Largest connected component among remaining nodes (paper Fig. 8)",
		Columns: []string{"removed", "random (mean ± 95% CI)", "targeted"},
	}
	for i, f := range fractions {
		mean, hw := stats.MeanCI95(samples[i])
		t.AddRow(report.Pct(f), fmt.Sprintf("%s ± %.3f", report.Pct(mean), hw), report.Pct(targeted[i]))
	}
	fmt.Println(t)
	fmt.Println("The overlay is very robust to random failures (scale-free structure)")
	fmt.Println("and substantially more vulnerable to targeted removals, as in the paper.")
}
