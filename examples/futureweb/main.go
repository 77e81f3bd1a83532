// Futureweb: the Section 9 discussion as running code. Compares content
// resolution through the decentralized DHT against the cloud-hosted
// network indexer the paper warns about, demonstrates the indexer
// operator's censorship power and the DHT-fallback mitigation, and shows
// the IPNS layer keeping a mutable name pointing at evolving content.
package main

import (
	"fmt"

	"tcsb/internal/dht"
	"tcsb/internal/ids"
	"tcsb/internal/indexer"
	"tcsb/internal/ipns"
	"tcsb/internal/report"
	"tcsb/internal/scenario"
)

func main() {
	cfg := scenario.DefaultConfig().Scaled(0.2)
	cfg.Seed = 23
	w := scenario.NewWorld(cfg)

	// A publisher serves a website over IPFS.
	publisher := w.Actors[w.ServerIDs()[10]]
	site1 := ids.CIDFromContent([]byte("my website, v1"))
	publisher.Node.AddBlock(site1)
	publisher.Node.Provide(nil, site1)

	// --- Indexer vs DHT (Fig.-less, Section 9) ---
	ix := indexer.New()
	ix.Announce(w.Net.Info(publisher.ID), []ids.CID{site1})

	walker := dht.NewWalker(w.Net, ids.PeerIDFromSeed(0xfe11))
	seeds := w.SeedsNear(site1.Key(), 8)

	before := w.Net.TotalMessages()
	_, stats := walker.FindProviders(nil, seeds, site1, dht.FindProvidersOpts{})
	dhtRPCs := w.Net.TotalMessages() - before

	t := &report.Table{
		Title:   "Resolution cost: centralized indexer vs DHT (paper §9)",
		Columns: []string{"path", "overlay RPCs", "peers queried"},
	}
	t.AddRow("network indexer", 0, 0)
	t.AddRow("DHT walk", fmt.Sprintf("%d", dhtRPCs), stats.Queried)
	fmt.Println(t)

	// --- Censorship and the DHT fallback ---
	ix.Block(site1)
	res := indexer.ResolveWithFallback(ix, walker, seeds, site1)
	fmt.Printf("indexer blocks the CID: resolution via indexer=%v, via DHT fallback records=%d\n",
		res.ViaIndexer, len(res.Records))
	fmt.Println("→ with the DHT kept as fallback, the operator cannot make content unreachable.")
	fmt.Println()

	// --- IPNS: a mutable name over immutable CIDs ---
	registry := ipns.NewRegistry()
	pub := ipns.NewPublisher(77)
	now := w.Net.Clock.Now()
	if err := pub.Update(registry, site1, now); err != nil {
		panic(err)
	}
	got, _ := registry.Resolve(pub.Name(), now)
	fmt.Printf("IPNS %s -> %s (v1)\n", pub.Name(), got.Short())

	// The site changes: same name, new CID.
	site2 := ids.CIDFromContent([]byte("my website, v2"))
	publisher.Node.AddBlock(site2)
	publisher.Node.Provide(nil, site2)
	if err := pub.Update(registry, site2, now+60); err != nil {
		panic(err)
	}
	got, _ = registry.Resolve(pub.Name(), now+120)
	fmt.Printf("IPNS %s -> %s (v2, after update)\n", pub.Name(), got.Short())

	// A replayed stale record cannot roll the name back.
	stale := ipns.NewRecord(pub.Name(), site1, 1, now+180)
	if ok, _ := registry.Publish(stale, now+180); ok {
		panic("stale record accepted")
	}
	got, _ = registry.Resolve(pub.Name(), now+240)
	fmt.Printf("IPNS %s -> %s (after replay attempt: unchanged)\n", pub.Name(), got.Short())
}
