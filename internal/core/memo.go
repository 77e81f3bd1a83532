package core

import (
	"sync"

	"tcsb/internal/counting"
	"tcsb/internal/graph"
	"tcsb/internal/provrecords"
)

// memo caches derived datasets that several experiments share. Each field
// is computed at most once per observatory, so concurrently running
// experiments (internal/experiments' parallel runner) never duplicate the
// heavy derivations and never race on lazily built state: everything an
// experiment reads is either immutable campaign output or produced behind
// one of these sync.Onces.
type memo struct {
	datasetOnce sync.Once
	dataset     *counting.Dataset

	lastGraphOnce sync.Once
	lastGraph     *graph.Graph

	undirectedOnce sync.Once
	undirected     [][]int32

	profilesOnce sync.Once
	profiles     []provrecords.ProviderProfile
}

// Dataset returns the crawl series in counting form, built once.
func (o *Observatory) Dataset() *counting.Dataset {
	o.memo.datasetOnce.Do(func() {
		o.memo.dataset = counting.FromSeries(&o.Crawls)
	})
	return o.memo.dataset
}

// LastGraph returns the topology graph of the final crawl, built once.
func (o *Observatory) LastGraph() *graph.Graph {
	o.memo.lastGraphOnce.Do(func() {
		o.memo.lastGraph = graph.FromSnapshot(o.lastSnapshot())
	})
	return o.memo.lastGraph
}

// UndirectedAdj returns the symmetrized adjacency of the final crawl
// graph, built once (shared by the Fig. 8 removal experiments).
func (o *Observatory) UndirectedAdj() [][]int32 {
	o.memo.undirectedOnce.Do(func() {
		o.memo.undirected = o.LastGraph().Undirected()
	})
	return o.memo.undirected
}

// ProviderProfiles returns the per-provider profiles of the record
// collection, built once (shared by Figs. 14 and 15).
func (o *Observatory) ProviderProfiles() []provrecords.ProviderProfile {
	o.memo.profilesOnce.Do(func() {
		o.memo.profiles = provrecords.Profiles(&o.Records, o.isCloud())
	})
	return o.memo.profiles
}
