package graph

import (
	"math/rand"
	"testing"

	"tcsb/internal/crawler"
	"tcsb/internal/ids"
	"tcsb/internal/simtest"
)

func buildGraph(t testing.TB, n int) *Graph {
	t.Helper()
	net := simtest.BuildServers(n)
	snap := crawler.Crawl(net.Network,
		crawler.Config{ID: 1, CrawlerID: ids.PeerIDFromSeed(1 << 60)}, net.Seeds(2))
	return FromSnapshot(snap)
}

func TestFromSnapshotBasics(t *testing.T) {
	g := buildGraph(t, 200)
	if g.N() != 200 {
		t.Fatalf("N = %d", g.N())
	}
	if g.NumCrawlable() != 200 {
		t.Fatalf("NumCrawlable = %d", g.NumCrawlable())
	}
	if g.Edges() == 0 {
		t.Fatal("no edges")
	}
	// Round trip peer <-> index.
	for i := 0; i < g.N(); i++ {
		if g.Index(g.Peer(i)) != i {
			t.Fatalf("index round trip failed at %d", i)
		}
	}
	if g.Index(ids.PeerIDFromSeed(1<<59)) != -1 {
		t.Error("unknown peer should map to -1")
	}
}

func TestDegreeAccounting(t *testing.T) {
	g := buildGraph(t, 150)
	outs := g.OutDegrees()
	ins := g.InDegrees()
	var sumOut, sumIn float64
	for _, d := range outs {
		sumOut += d
	}
	for _, d := range ins {
		sumIn += d
	}
	// Every directed edge contributes one out- and one in-degree.
	if sumOut != sumIn {
		t.Fatalf("sum(out) = %v != sum(in) = %v", sumOut, sumIn)
	}
	if int(sumOut) != g.Edges() {
		t.Fatalf("sum(out) = %v, edges = %d", sumOut, g.Edges())
	}
}

func TestOutDegreeTightBand(t *testing.T) {
	// Fig. 7: out-degrees sit in a small band dictated by k and network
	// size; in a 300-node network every crawlable node should have an
	// out-degree within a factor-two band.
	g := buildGraph(t, 300)
	outs := g.OutDegrees()
	var min, max = outs[0], outs[0]
	for _, d := range outs {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if min < 20 {
		t.Errorf("minimum out-degree %v suspiciously low", min)
	}
	if max > 3*min {
		t.Errorf("out-degree band [%v, %v] too wide for a Kademlia graph", min, max)
	}
}

func TestUndirectedSymmetric(t *testing.T) {
	g := buildGraph(t, 100)
	adj := g.Undirected()
	// Symmetry and no self loops or duplicates.
	for a := range adj {
		seen := map[int32]bool{}
		for _, b := range adj[a] {
			if int(b) == a {
				t.Fatal("self loop")
			}
			if seen[b] {
				t.Fatal("duplicate undirected edge")
			}
			seen[b] = true
			found := false
			for _, back := range adj[b] {
				if int(back) == a {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d-%d not symmetric", a, b)
			}
		}
	}
}

// pathGraph builds a simple path 0-1-2-...-n-1 for exact expectations.
func pathGraph(n int) [][]int32 {
	adj := make([][]int32, n)
	for i := 0; i < n-1; i++ {
		adj[i] = append(adj[i], int32(i+1))
		adj[i+1] = append(adj[i+1], int32(i))
	}
	return adj
}

func TestRemovalCurvePath(t *testing.T) {
	// Removing the middle of a 5-path splits it into two 2-components:
	// largest CC fraction after 1 removal = 2/4.
	adj := pathGraph(5)
	order := []int{2, 0, 1, 3, 4}
	curve := RemovalCurve(adj, order)
	if curve[0] != 1.0 {
		t.Errorf("curve[0] = %v, want 1 (intact path)", curve[0])
	}
	if curve[1] != 0.5 {
		t.Errorf("curve[1] = %v, want 0.5", curve[1])
	}
	// After removing {2,0}: nodes 1,3,4 remain; components {1},{3,4}.
	if want := 2.0 / 3.0; curve[2] != want {
		t.Errorf("curve[2] = %v, want %v", curve[2], want)
	}
	// Last state: single node.
	if curve[4] != 1.0 {
		t.Errorf("curve[4] = %v, want 1", curve[4])
	}
}

func TestRemovalCurveStar(t *testing.T) {
	// Star: hub 0 with 9 leaves. Removing the hub isolates everything.
	n := 10
	adj := make([][]int32, n)
	for i := 1; i < n; i++ {
		adj[0] = append(adj[0], int32(i))
		adj[i] = append(adj[i], 0)
	}
	order := TargetedOrder(adj)
	if order[0] != 0 {
		t.Fatalf("targeted order starts with %d, want hub 0", order[0])
	}
	curve := RemovalCurve(adj, order)
	if want := 1.0 / 9.0; curve[1] != want {
		t.Errorf("after hub removal, largest CC fraction = %v, want %v", curve[1], want)
	}
}

func TestTargetedOrderRecomputesDegrees(t *testing.T) {
	// Two stars joined by an edge between hubs: after removing hub A
	// (degree 5), hub B (degree 5->4) must still come before any leaf.
	//      1,2,3,4 - 0 - 5 - 6,7,8,9
	adj := make([][]int32, 10)
	link := func(a, b int32) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for _, l := range []int32{1, 2, 3, 4} {
		link(0, l)
	}
	for _, l := range []int32{6, 7, 8, 9} {
		link(5, l)
	}
	link(0, 5)
	order := TargetedOrder(adj)
	if !(order[0] == 0 || order[0] == 5) {
		t.Fatalf("first removal = %d, want a hub", order[0])
	}
	if !(order[1] == 0 || order[1] == 5) || order[1] == order[0] {
		t.Fatalf("second removal = %d, want the other hub", order[1])
	}
}

func TestRandomVsTargetedOnDHTGraph(t *testing.T) {
	// The headline of Fig. 8: the Kademlia graph is very robust to random
	// removal (largest CC stays near 100% even at 50% removed) and more
	// susceptible to targeted removal.
	g := buildGraph(t, 400)
	adj := g.Undirected()
	rng := rand.New(rand.NewSource(1))

	randomCurve := RemovalCurve(adj, RandomOrder(g.N(), rng))
	targetedCurve := RemovalCurve(adj, TargetedOrder(adj))

	atHalf := SampleCurve(randomCurve, []float64{0.5})[0]
	if atHalf < 0.95 {
		t.Errorf("random removal at 50%%: largest CC fraction %v, want >= 0.95", atHalf)
	}
	// Targeted is never better for the attacker-resistance metric.
	for _, f := range []float64{0.1, 0.3, 0.5, 0.7} {
		r := SampleCurve(randomCurve, []float64{f})[0]
		tg := SampleCurve(targetedCurve, []float64{f})[0]
		if tg > r+0.05 {
			t.Errorf("at %.0f%% removed: targeted (%v) beats random (%v)", f*100, tg, r)
		}
	}
}

func TestRemovalCurvePanicsOnBadOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on short order")
		}
	}()
	RemovalCurve(pathGraph(5), []int{0, 1})
}

func TestSampleCurveBounds(t *testing.T) {
	curve := []float64{1, 0.8, 0.5, 0.2}
	got := SampleCurve(curve, []float64{0, 0.5, 0.99, -1, 2})
	want := []float64{1, 0.5, 0.2, 1, 0.2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func BenchmarkRemovalCurve(b *testing.B) {
	g := buildGraph(b, 500)
	adj := g.Undirected()
	order := RandomOrder(g.N(), rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = RemovalCurve(adj, order)
	}
}

func BenchmarkTargetedOrder(b *testing.B) {
	g := buildGraph(b, 500)
	adj := g.Undirected()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = TargetedOrder(adj)
	}
}
