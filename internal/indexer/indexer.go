// Package indexer models the cloud-hosted network indexer discussed in
// Section 9 of the paper (the InterPlanetary Network Indexer announced by
// Protocol Labs): a centralized service that "gathers information about
// all the content stored on IPFS and can resolve it much faster than the
// current DHT lookups".
//
// The paper's concern is exactly what this model exposes: resolution
// through the indexer costs a single lookup against one operator, so it
// is strictly faster than a DHT walk — and that operator gains the power
// to block content. The package therefore implements both sides of the
// trade-off the paper discusses:
//
//   - Announce/Resolve: the fast centralized path;
//   - Block: the censorship lever a single operator holds;
//   - ResolveWithFallback: the paper's recommendation — "we strongly
//     advise keeping the DHT as a fallback resolution mechanism to
//     maintain the decentralization of the network".
package indexer

import (
	"tcsb/internal/dht"
	"tcsb/internal/ids"
	"tcsb/internal/netsim"
)

// Indexer is a centralized content index. Unlike the DHT it is not part
// of the overlay: lookups are a single round trip to one operator.
type Indexer struct {
	entries map[ids.CID]map[ids.PeerID]netsim.ProviderRecord
	blocked map[ids.CID]bool

	// Lookups counts Resolve calls; Announcements counts announced
	// (provider, CID) pairs — the indexer operator's view of the network.
	Lookups       int64
	Announcements int64
	// BlockedHits counts resolutions suppressed by the blocklist.
	BlockedHits int64
}

// New creates an empty indexer.
func New() *Indexer {
	return &Indexer{
		entries: make(map[ids.CID]map[ids.PeerID]netsim.ProviderRecord),
		blocked: make(map[ids.CID]bool),
	}
}

// Announce ingests an advertisement: the provider claims to serve the
// given CIDs. Real indexers ingest signed advertisement chains; the
// simulator trusts the scenario.
func (ix *Indexer) Announce(provider netsim.PeerInfo, cids []ids.CID) {
	for _, c := range cids {
		m := ix.entries[c]
		if m == nil {
			m = make(map[ids.PeerID]netsim.ProviderRecord)
			ix.entries[c] = m
		}
		m[provider.ID] = netsim.ProviderRecord{Provider: provider}
		ix.Announcements++
	}
}

// Resolve returns the known providers for c in a single lookup, or nil
// when the CID is unknown — or blocked, which is indistinguishable to
// the client (the censorship property the paper worries about).
func (ix *Indexer) Resolve(c ids.CID) []netsim.ProviderRecord {
	ix.Lookups++
	if ix.blocked[c] {
		ix.BlockedHits++
		return nil
	}
	m := ix.entries[c]
	if len(m) == 0 {
		return nil
	}
	out := make([]netsim.ProviderRecord, 0, len(m))
	for _, rec := range m {
		out = append(out, rec)
	}
	// Deterministic order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Provider.ID.Key().Cmp(out[j-1].Provider.ID.Key()) < 0; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Block suppresses resolution of a CID — the single-operator censorship
// lever ("the power to block content, e.g. when pressured by the
// government").
func (ix *Indexer) Block(c ids.CID) { ix.blocked[c] = true }

// Unblock lifts a block.
func (ix *Indexer) Unblock(c ids.CID) { delete(ix.blocked, c) }

// Blocked reports whether a CID is on the blocklist.
func (ix *Indexer) Blocked(c ids.CID) bool { return ix.blocked[c] }

// CIDs returns the number of indexed CIDs.
func (ix *Indexer) CIDs() int { return len(ix.entries) }

// Resolution describes how a lookup was satisfied.
type Resolution struct {
	Records []netsim.ProviderRecord
	// ViaIndexer is true when the centralized path answered.
	ViaIndexer bool
	// Walk carries DHT statistics when the fallback ran.
	Walk dht.WalkStats
}

// ResolveWithFallback implements the paper's recommended architecture:
// query the indexer first (fast, centralized), and fall back to a DHT
// walk when the indexer has no answer — so content stays resolvable even
// if the indexer operator blocks it or disappears.
func ResolveWithFallback(ix *Indexer, w *dht.Walker, seeds []netsim.PeerInfo, c ids.CID) Resolution {
	if recs := ix.Resolve(c); len(recs) > 0 {
		return Resolution{Records: recs, ViaIndexer: true}
	}
	recs, stats := w.FindProviders(nil, seeds, c, dht.FindProvidersOpts{})
	return Resolution{Records: recs, Walk: stats}
}
