// Package counting implements the paper's two counting methodologies for
// deriving properties of a dynamic DHT population from repeated crawls
// (Section 3, "Counting Methodologies" and Table 1):
//
//   - G-IP (Global, Unique IP): deduplicate IP addresses over the entire
//     dataset, attribute each IP, and count. This is the methodology of
//     Trautwein et al.; it over-counts peers that announce multiple or
//     rotating IPs and it counts churned peers for the whole period.
//
//   - A-N (Average over Crawls, Unique Nodes): treat each crawl as a
//     snapshot; within a crawl, assign each *peer* a single attribute
//     value by majority vote over its announced IPs; count peers per
//     crawl; average the counts over all crawls. A stable node counts as
//     1.0, a node online in half the crawls counts as 0.5.
//
// For the worked example of Table 1 these give {DE:2, US:2} (G-IP) and
// {DE:0.5, US:1} (A-N) respectively, which the tests pin down.
package counting

import (
	"net/netip"
	"sort"

	"tcsb/internal/crawler"
	"tcsb/internal/ids"
)

// Row is one (crawl, peer, IP) observation — the normalized form of the
// crawl dataset shown in Table 1 of the paper.
type Row struct {
	Crawl int
	Peer  ids.PeerID
	IP    netip.Addr
}

// AttrFunc derives a property of interest from an IP address (country,
// cloud provider, cloud/non-cloud, …).
type AttrFunc func(netip.Addr) string

// ClassifyFunc reduces the multiset of per-IP attribute values a peer
// announced within one crawl to a single label for that peer.
// MajorityVote is the paper's default; CloudBothClassifier implements the
// BOTH label for peers mixing cloud and non-cloud addresses.
type ClassifyFunc func(attrs []string) string

// Dataset is an immutable set of crawl rows with index structures for the
// two methodologies.
type Dataset struct {
	rows   []Row
	crawls []int // sorted distinct crawl IDs
}

// New builds a dataset from rows (copied; order irrelevant).
func New(rows []Row) *Dataset {
	d := &Dataset{rows: append([]Row(nil), rows...)}
	seen := map[int]bool{}
	for _, r := range d.rows {
		if !seen[r.Crawl] {
			seen[r.Crawl] = true
			d.crawls = append(d.crawls, r.Crawl)
		}
	}
	sort.Ints(d.crawls)
	return d
}

// FromSeries flattens a crawl series into rows: one row per (crawl, peer,
// announced non-local IP).
func FromSeries(s *crawler.Series) *Dataset {
	var rows []Row
	for _, snap := range s.Snapshots {
		for i := range snap.Peers {
			o := &snap.Peers[i]
			for _, ip := range o.IPs() {
				rows = append(rows, Row{Crawl: snap.ID, Peer: o.Peer, IP: ip})
			}
		}
	}
	return New(rows)
}

// Prefix returns a dataset containing only the first k crawls (by crawl
// ID order), used for the cumulative-crawls comparison of Fig. 4.
func (d *Dataset) Prefix(k int) *Dataset {
	if k >= len(d.crawls) {
		return d
	}
	keep := make(map[int]bool, k)
	for _, id := range d.crawls[:k] {
		keep[id] = true
	}
	var rows []Row
	for _, r := range d.rows {
		if keep[r.Crawl] {
			rows = append(rows, r)
		}
	}
	return New(rows)
}

// GIP applies the Global-Unique-IP methodology: every distinct IP in the
// dataset is attributed once. Returns label → count.
func (d *Dataset) GIP(attr AttrFunc) map[string]float64 {
	seen := make(map[netip.Addr]bool)
	out := make(map[string]float64)
	for _, r := range d.rows {
		if seen[r.IP] {
			continue
		}
		seen[r.IP] = true
		out[attr(r.IP)]++
	}
	return out
}

// AN applies the Average-over-Crawls-Unique-Nodes methodology with the
// given per-peer classifier. Returns label → average peer count per
// crawl.
func (d *Dataset) AN(attr AttrFunc, classify ClassifyFunc) map[string]float64 {
	if len(d.crawls) == 0 {
		return map[string]float64{}
	}
	// Group attribute values per (crawl, peer).
	type cp struct {
		crawl int
		peer  ids.PeerID
	}
	groups := make(map[cp][]string)
	for _, r := range d.rows {
		k := cp{r.Crawl, r.Peer}
		groups[k] = append(groups[k], attr(r.IP))
	}
	totals := make(map[string]float64)
	for _, attrs := range groups {
		totals[classify(attrs)]++
	}
	n := float64(len(d.crawls))
	for k := range totals {
		totals[k] /= n
	}
	return totals
}

// MajorityVote returns the most frequent attribute value, breaking ties
// by lexicographic order for determinism. Empty input returns "".
func MajorityVote(attrs []string) string {
	if len(attrs) == 0 {
		return ""
	}
	counts := make(map[string]int, len(attrs))
	for _, a := range attrs {
		counts[a]++
	}
	best := ""
	bestN := -1
	for a, n := range counts {
		if n > bestN || (n == bestN && a < best) {
			best, bestN = a, n
		}
	}
	return best
}

// BothLabel is the label assigned to peers announcing both cloud and
// non-cloud addresses within one crawl.
const BothLabel = "BOTH"

// CloudBothClassifier builds a classifier implementing the paper's cloud
// attribution rule: nonCloudLabel is the attr value meaning "no database
// entry". A peer announcing only cloud IPs gets its majority provider; a
// peer mixing cloud and non-cloud gets BothLabel; otherwise the
// non-cloud label.
func CloudBothClassifier(nonCloudLabel string) ClassifyFunc {
	return func(attrs []string) string {
		var cloud []string
		hasNonCloud := false
		for _, a := range attrs {
			if a == nonCloudLabel {
				hasNonCloud = true
			} else {
				cloud = append(cloud, a)
			}
		}
		switch {
		case len(cloud) > 0 && hasNonCloud:
			return BothLabel
		case len(cloud) > 0:
			return MajorityVote(cloud)
		default:
			return nonCloudLabel
		}
	}
}

// CumulativePoint is one point of the Fig. 4 comparison: the value of a
// derived ratio after aggregating the first K crawls.
type CumulativePoint struct {
	Crawls int
	Value  float64
}

// CumulativeRatio evaluates ratio(d.Prefix(k)) for every k in 1..Crawls,
// producing the Fig. 4 curves (e.g. cloud:non-cloud ratio as a function
// of aggregated crawls, under either methodology).
func (d *Dataset) CumulativeRatio(ratio func(*Dataset) float64) []CumulativePoint {
	out := make([]CumulativePoint, 0, len(d.crawls))
	for k := 1; k <= len(d.crawls); k++ {
		out = append(out, CumulativePoint{Crawls: k, Value: ratio(d.Prefix(k))})
	}
	return out
}
