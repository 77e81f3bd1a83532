// Package churn derives liveness statistics from repeated crawl
// snapshots — the evidence behind the paper's Section 4 argument that
// "non-cloud IPFS nodes tend to be short-lived and frequently change
// their IP addresses, artificially inflating their share" under naive
// counting, and behind the short identifier lifetimes of Fig. 9.
//
// Each peer's presence across the crawl series forms a bitmap; from it
// we estimate uptime (fraction of crawls present), observed lifespan
// (first to last sighting), session structure (maximal runs of
// consecutive sightings) and IP stability (distinct addresses per peer),
// all splittable by an attribute such as cloud vs non-cloud.
package churn

import (
	"net/netip"
	"sort"

	"tcsb/internal/crawler"
	"tcsb/internal/ids"
	"tcsb/internal/stats"
)

// PeerStats is the liveness profile of one peer over a crawl series.
type PeerStats struct {
	Peer ids.PeerID
	// Appearances is the number of crawls the peer was discovered in.
	Appearances int
	// Crawls is the series length.
	Crawls int
	// Sessions is the number of maximal runs of consecutive sightings.
	Sessions int
	// LongestSession is the longest run, in crawls.
	LongestSession int
	// IPs is the number of distinct non-local addresses advertised.
	IPs int
}

// Uptime returns the fraction of crawls the peer appeared in.
func (p PeerStats) Uptime() float64 {
	if p.Crawls == 0 {
		return 0
	}
	return float64(p.Appearances) / float64(p.Crawls)
}

// Analyze computes per-peer statistics over a crawl series. Crawl order
// follows the series' snapshot order.
func Analyze(s *crawler.Series) []PeerStats {
	n := len(s.Snapshots)
	type acc struct {
		stats   PeerStats
		lastIdx int // crawl index of the previous sighting
		run     int // current consecutive-sighting run length
		ips     map[netip.Addr]bool
	}
	accs := make(map[ids.PeerID]*acc)
	var order []ids.PeerID
	for idx, snap := range s.Snapshots {
		for i := range snap.Peers {
			o := &snap.Peers[i]
			p := o.Peer
			a := accs[p]
			if a == nil {
				a = &acc{
					stats:   PeerStats{Peer: p, Crawls: n},
					lastIdx: -2,
					ips:     make(map[netip.Addr]bool),
				}
				accs[p] = a
				order = append(order, p)
			}
			a.stats.Appearances++
			if a.lastIdx != idx-1 {
				a.stats.Sessions++
				a.run = 0
			}
			a.run++
			if a.run > a.stats.LongestSession {
				a.stats.LongestSession = a.run
			}
			a.lastIdx = idx
			for _, ip := range o.IPs() {
				a.ips[ip] = true
			}
		}
	}
	out := make([]PeerStats, 0, len(order))
	for _, p := range order {
		a := accs[p]
		a.stats.IPs = len(a.ips)
		out = append(out, a.stats)
	}
	return out
}

// GroupSummary aggregates liveness per attribute group.
type GroupSummary struct {
	Group string
	Peers int
	// MeanUptime is the average fraction of crawls present.
	MeanUptime float64
	// MedianSessions is the median session count.
	MedianSessions float64
	// MeanIPs is the average distinct-IP count per peer.
	MeanIPs float64
}

// Summarize groups per-peer statistics by an attribute of the peer
// (e.g. cloud vs non-cloud via its majority IP) and aggregates. Groups
// are returned sorted by name.
func Summarize(peers []PeerStats, group func(PeerStats) string) []GroupSummary {
	byGroup := make(map[string][]PeerStats)
	for _, p := range peers {
		g := group(p)
		byGroup[g] = append(byGroup[g], p)
	}
	names := make([]string, 0, len(byGroup))
	for g := range byGroup {
		names = append(names, g)
	}
	sort.Strings(names)
	out := make([]GroupSummary, 0, len(names))
	for _, g := range names {
		ps := byGroup[g]
		sum := GroupSummary{Group: g, Peers: len(ps)}
		uptimes := make([]float64, len(ps))
		sessions := make([]float64, len(ps))
		var ipTotal float64
		for i, p := range ps {
			uptimes[i] = p.Uptime()
			sessions[i] = float64(p.Sessions)
			ipTotal += float64(p.IPs)
		}
		sum.MeanUptime = stats.Mean(uptimes)
		sum.MedianSessions = stats.Percentile(sessions, 50)
		sum.MeanIPs = ipTotal / float64(len(ps))
		out = append(out, sum)
	}
	return out
}
