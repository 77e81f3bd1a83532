// Package provrecords implements the paper's provider-record collection
// (Section 3, "Provider Records") and the content-provider analyses of
// Section 6 built on it (Figures 14–16).
//
// Collection: for every CID in the daily sampled Bitswap set, run the
// modified (exhaustive) FindProviders that queries all resolvers, verify
// each discovered provider's reachability at collection time, and ignore
// unreachable ones. Repeated daily, this yields the 28-day, 5.6M-CID
// dataset behind Figures 14–16.
//
// Analysis: classify providers as NAT-ed / cloud / non-cloud / hybrid
// from their provider records' multiaddresses, and measure the cloud
// share of circuit relays, provider popularity across records, and the
// per-CID cloud reliance of content.
package provrecords

import (
	"tcsb/internal/dht"
	"tcsb/internal/ids"
	"tcsb/internal/netsim"
)

// CIDRecords is the provider set collected for one CID on one day. Its
// position in the collection follows the day's CID sample.
type CIDRecords struct {
	Day int64
	// Records holds only the reachable providers, matching the paper's
	// "ignored the unreachable ones".
	Records []netsim.ProviderRecord
}

// Collection is the accumulated multi-day dataset.
type Collection struct {
	// PerCID holds one entry per (CID, day) collection.
	PerCID []CIDRecords
}

// Collector gathers provider records from a network using a dedicated
// overlay identity.
type Collector struct {
	net    *netsim.Network
	walker *dht.Walker
	seeds  func(target ids.Key) []netsim.PeerInfo
}

// NewCollector creates a collector. seeds supplies walk entry points for
// a target key (typically the scenario's nearest-online-servers oracle or
// a bootstrap list).
func NewCollector(net *netsim.Network, self ids.PeerID, seeds func(ids.Key) []netsim.PeerInfo) *Collector {
	return &Collector{net: net, walker: dht.NewWalker(net, self), seeds: seeds}
}

// Verify performs the reachability check on a provider record.
func Verify(net *netsim.Network, rec netsim.ProviderRecord) bool {
	id := rec.Provider.ID
	if net.Reachable(id) {
		return true
	}
	// NAT-ed provider: reachable iff online with a live relay.
	if !net.Online(id) {
		return false
	}
	relay := net.Relay(id)
	return !relay.IsZero() && net.Online(relay)
}

// CollectOne retrieves and verifies all provider records for one CID.
func (c *Collector) CollectOne(env *netsim.Effects, cid ids.CID, day int64) CIDRecords {
	recs := c.walker.FindProviders(env, c.seeds(cid.Key()), cid, dht.FindProvidersOpts{Exhaustive: true})
	out := CIDRecords{Day: day}
	for _, r := range recs {
		if Verify(c.net, r) {
			out.Records = append(out.Records, r)
		}
	}
	return out
}

// CollectDayParallel runs CollectOne over a day's sampled CIDs,
// appending to the collection, with the per-CID walks fanned out over
// at most `workers` goroutines. Every walk is independent and the
// results are appended in sampled-CID order, so the collection — and the
// deferred handler effects the walks generate (Hydra log entries and
// proactive-lookup enqueues among them) — is identical for every worker
// count.
func (c *Collector) CollectDayParallel(col *Collection, cids []ids.CID, day int64, workers int) {
	out := make([]CIDRecords, len(cids))
	c.net.Fanout(workers, len(cids), func(i int, env *netsim.Effects) {
		out[i] = c.CollectOne(env, cids[i], day)
	})
	col.PerCID = append(col.PerCID, out...)
}
