// Package trace defines the unified traffic-event model shared by the two
// monitoring vantage points of the paper — the Bitswap monitoring node and
// the Hydra booster — together with the Section 5 analyses built on their
// logs: protocol mix, days-seen frequency of identifiers (Fig. 9),
// traffic-centralization Pareto charts by peer ID (Fig. 10) and by IP
// (Fig. 11), cloud share per traffic type (Fig. 12), and platform
// attribution (Fig. 13).
package trace

import (
	"net/netip"

	"tcsb/internal/ids"
	"tcsb/internal/netsim"
)

// Class groups messages the way the paper does: content-related
// downloads, advertisements, and everything else (joins, routing).
type Class int

// Traffic classes. In the Hydra logs GetProviders is download-related,
// AddProvider is advertisement-related, FindNode is other; every Bitswap
// WANT is a (potential) download.
const (
	Download Class = iota
	Advertise
	Other
	classCount
)

// String returns the class label used in reports.
func (c Class) String() string {
	switch c {
	case Download:
		return "download"
	case Advertise:
		return "advertise"
	default:
		return "other"
	}
}

// Classify maps an RPC type to its traffic class.
func Classify(t netsim.MsgType) Class {
	switch t {
	case netsim.MsgGetProviders, netsim.MsgBitswapWant:
		return Download
	case netsim.MsgAddProvider:
		return Advertise
	default:
		return Other
	}
}

// Event is one logged message at a monitoring vantage point.
type Event struct {
	// Time is the virtual-clock timestamp.
	Time netsim.Time
	// Peer is the sender's overlay identity.
	Peer ids.PeerID
	// IP is the sender's source address (the relay's address when the
	// sender is NAT-ed and proxied — which is exactly what a real
	// monitor would see; ViaRelay marks this case).
	IP netip.Addr
	// Type is the RPC type.
	Type netsim.MsgType
	// CID is the content the message concerns (zero for FindNode).
	CID ids.CID
	// ViaRelay marks messages that arrived through a circuit relay.
	ViaRelay bool
}

// Class returns the traffic class of the event.
func (e Event) Class() Class { return Classify(e.Type) }

// Log is an append-only event log. The zero value is ready to use.
type Log struct {
	events []Event
}

// Append records an event.
func (l *Log) Append(e Event) { l.events = append(l.events, e) }

// Len returns the number of events.
func (l *Log) Len() int { return len(l.events) }

// Events returns the underlying event slice — NOT a copy. The result
// aliases the log's backing array: callers must treat it as read-only,
// and a later Append may either grow that same array in place or move
// the log to a new one, so the snapshot is only guaranteed complete at
// the moment it was taken. Holding it across Append/Merge calls and
// appending to it yourself are both aliasing bugs (pinned by
// TestEventsAliasing).
func (l *Log) Events() []Event { return l.events }

// Merge appends copies of all of other's events into l. Events are
// values, so after Merge the two logs share nothing: mutating or
// appending to either never affects the other (pinned by
// TestMergeAndFilterAliasing).
func (l *Log) Merge(other *Log) { l.events = append(l.events, other.events...) }

// Filter returns a new log containing only events accepted by keep. The
// result is built on fresh backing storage — it never aliases the
// source log, so the two evolve independently afterwards (pinned by
// TestMergeAndFilterAliasing).
func (l *Log) Filter(keep func(Event) bool) *Log {
	out := &Log{}
	for _, e := range l.events {
		if keep(e) {
			out.events = append(out.events, e)
		}
	}
	return out
}

// Mix returns the fraction of events per traffic class (the paper: 57%
// download, 40% advertise, 3% other in the Hydra logs).
func (l *Log) Mix() map[Class]float64 {
	counts := make(map[Class]float64, classCount)
	for _, e := range l.events {
		counts[e.Class()]++
	}
	n := float64(len(l.events))
	if n == 0 {
		return counts
	}
	for c := range counts {
		counts[c] /= n
	}
	return counts
}

// ActivityByPeer returns per-peer message counts.
func (l *Log) ActivityByPeer() map[ids.PeerID]int64 {
	out := make(map[ids.PeerID]int64)
	for _, e := range l.events {
		out[e.Peer]++
	}
	return out
}

// ActivityByIP returns per-IP message counts.
func (l *Log) ActivityByIP() map[netip.Addr]int64 {
	out := make(map[netip.Addr]int64)
	for _, e := range l.events {
		if e.IP.IsValid() {
			out[e.IP]++
		}
	}
	return out
}

// SecondsPerDay converts virtual time to "days" for frequency analyses.
const SecondsPerDay = 24 * 3600

// DaysSeenHistogram computes, for a chosen identifier dimension, how many
// identifiers were observed on exactly d distinct days — the Fig. 9
// histograms for CIDs, IPs and peer IDs. key must return ("", false) to
// skip an event.
func DaysSeenHistogram(l *Log, key func(Event) (string, bool)) map[int]int {
	days := make(map[string]map[int64]bool)
	for _, e := range l.events {
		k, ok := key(e)
		if !ok {
			continue
		}
		d := e.Time / SecondsPerDay
		m := days[k]
		if m == nil {
			m = make(map[int64]bool)
			days[k] = m
		}
		m[d] = true
	}
	hist := make(map[int]int)
	for _, m := range days {
		hist[len(m)]++
	}
	return hist
}

// CIDKey keys events by CID for DaysSeenHistogram.
func CIDKey(e Event) (string, bool) {
	if e.CID.IsZero() {
		return "", false
	}
	return e.CID.String(), true
}

// IPKey keys events by source IP.
func IPKey(e Event) (string, bool) {
	if !e.IP.IsValid() {
		return "", false
	}
	return e.IP.String(), true
}

// PeerKey keys events by sender peer ID.
func PeerKey(e Event) (string, bool) {
	if e.Peer.IsZero() {
		return "", false
	}
	return e.Peer.String(), true
}

// GroupShare computes each group's share of total traffic, where group
// assigns every event to a label (e.g. cloud provider via the sender IP,
// gateway vs non-gateway via the sender peer ID, platform via rDNS).
func (l *Log) GroupShare(group func(Event) string) map[string]float64 {
	counts := make(map[string]float64)
	for _, e := range l.events {
		counts[group(e)]++
	}
	n := float64(len(l.events))
	if n == 0 {
		return counts
	}
	for g := range counts {
		counts[g] /= n
	}
	return counts
}

// UniqueIPShare computes each group's share of *distinct IPs* (the
// "by count" bars of Fig. 12 top), as opposed to GroupShare's
// traffic-weighted view (Fig. 12 bottom).
func (l *Log) UniqueIPShare(attr func(netip.Addr) string) map[string]float64 {
	seen := make(map[netip.Addr]bool)
	counts := make(map[string]float64)
	total := 0.0
	for _, e := range l.events {
		if !e.IP.IsValid() || seen[e.IP] {
			continue
		}
		seen[e.IP] = true
		counts[attr(e.IP)]++
		total++
	}
	if total == 0 {
		return counts
	}
	for g := range counts {
		counts[g] /= total
	}
	return counts
}
