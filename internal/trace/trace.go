// Package trace defines the unified traffic-event model shared by the two
// monitoring vantage points of the paper — the Bitswap monitoring node and
// the Hydra booster — together with the Section 5 analyses folded from
// their event streams (Accum): protocol mix, days-seen frequency of
// identifiers (Fig. 9), traffic-centralization Pareto charts by peer ID
// (Fig. 10) and by IP (Fig. 11), cloud share per traffic type (Fig. 12),
// and platform attribution (Fig. 13). The raw event Log is kept only
// when a world retains its trace; the batch analyses over it that the
// streaming ones are checked against live in internal/simtest/invariants.
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
	// IP is the sender's source address as netsim.ObservedAddr reports
	// it: for a NAT-ed sender, the public side of its NAT, or its
	// relay's address when no source address is known.
	IP netip.Addr
	// Type is the RPC type.
	Type netsim.MsgType
	// CID is the content the message concerns (zero for FindNode).
	CID ids.CID
}

// Class returns the traffic class of the event.
func (e Event) Class() Class { return Classify(e.Type) }

// Log is an append-only event log. The zero value is ready to use.
type Log struct {
	events []Event
}

// Append records an event.
func (l *Log) Append(e Event) { l.events = append(l.events, e) }

// Events returns the underlying event slice — NOT a copy. The result
// aliases the log's backing array: callers must treat it as read-only,
// and a later Append may either grow that same array in place or move
// the log to a new one, so the snapshot is only guaranteed complete at
// the moment it was taken. Holding it across Append calls and
// appending to it yourself are both aliasing bugs (pinned by
// TestEventsAliasing).
func (l *Log) Events() []Event { return l.events }

// SecondsPerDay converts virtual time to "days" for frequency analyses.
const SecondsPerDay = 24 * 3600
