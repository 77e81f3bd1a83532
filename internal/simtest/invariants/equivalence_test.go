package invariants

import (
	"net/netip"
	"reflect"
	"testing"

	"tcsb/internal/ids"
	"tcsb/internal/netsim"
	"tcsb/internal/trace"
)

func ev(t int64, peer, ipLow uint64, mt netsim.MsgType, cid uint64) trace.Event {
	e := trace.Event{Time: t, Peer: ids.PeerIDFromSeed(peer), Type: mt}
	if ipLow != 0 {
		e.IP = netip.AddrFrom4([4]byte{10, 0, byte(ipLow >> 8), byte(ipLow)})
	}
	if cid != 0 {
		e.CID = ids.CIDFromSeed(cid)
	}
	return e
}

// TestAccumMatchesLogAnalyses holds every streaming trace.Accum analysis
// equal to the batch reference model over the same retained events, on
// small hand-built streams: mixed classes and days with a missing IP and
// CID, identity-tagged senders, a single event and no events at all.
// CheckStreamingEquivalence runs the same comparison on whole worlds.
func TestAccumMatchesLogAnalyses(t *testing.T) {
	tagged := ids.PeerIDFromSeed(77)
	cases := []struct {
		name   string
		events []trace.Event
	}{
		{"mixed", []trace.Event{
			ev(10, 1, 1, netsim.MsgGetProviders, 100),
			ev(20, 2, 2, netsim.MsgAddProvider, 100),
			ev(30, 1, 1, netsim.MsgBitswapWant, 101),
			ev(trace.SecondsPerDay+5, 1, 3, netsim.MsgGetProviders, 100),
			ev(trace.SecondsPerDay+6, 3, 0, netsim.MsgFindNode, 0), // invalid IP, zero CID
			ev(2*trace.SecondsPerDay, 2, 2, netsim.MsgFindNode, 102),
		}},
		{"tagged", []trace.Event{
			ev(1, 77, 5, netsim.MsgGetProviders, 1),
			ev(2, 77, 5, netsim.MsgGetProviders, 2),
			ev(3, 1, 6, netsim.MsgGetProviders, 3),
			ev(4, 2, 0, netsim.MsgGetProviders, 4), // invalid IP, untagged
			ev(5, 1, 6, netsim.MsgAddProvider, 5),
		}},
		{"single", []trace.Event{ev(10, 1, 1, netsim.MsgGetProviders, 3)}},
		{"empty", nil},
	}
	attr := func(ip netip.Addr) string {
		if !ip.IsValid() {
			return "none"
		}
		if ip.As4()[3]%2 == 0 {
			return "even"
		}
		return "odd"
	}
	tagAttr := func(e trace.Event) string {
		if e.Peer == tagged {
			return "special"
		}
		return attr(e.IP)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := trace.NewPipeline(trace.Options{Retain: true, TagPeer: func(p ids.PeerID) bool { return p == tagged }})
			for _, e := range tc.events {
				p.Observe(e)
			}
			st, events := p.Stats(), p.Log().Events()
			check := func(label string, fromSink, fromLog any) {
				t.Helper()
				if !reflect.DeepEqual(fromSink, fromLog) {
					t.Errorf("%s: streaming %v != batch %v", label, fromSink, fromLog)
				}
			}
			check("Len", st.Len(), len(events))
			check("Mix", st.Mix(), mixOf(events))
			check("ActivityByPeer", peerActivity(st), activityByPeer(events))
			check("ActivityByIP", ipActivity(st), activityByIP(events))
			check("DaysSeenByCID", st.DaysSeenByCID(), daysSeenHistogram(events, cidKey))
			check("DaysSeenByIP", st.DaysSeenByIP(), daysSeenHistogram(events, ipKey))
			check("DaysSeenByPeer", st.DaysSeenByPeer(), daysSeenHistogram(events, peerKey))
			check("GroupShareByIP", st.GroupShareByIP(attr),
				groupShare(events, func(e trace.Event) string { return attr(e.IP) }))
			check("UniqueIPShare", st.UniqueIPShare(attr), uniqueIPShare(events, attr))
			check("TaggedGroupShareByIP", st.TaggedGroupShareByIP("special", attr), groupShare(events, tagAttr))
			for _, cl := range []trace.Class{trace.Download, trace.Advertise, trace.Other} {
				cl := cl
				sub := p.Log().Filter(func(e trace.Event) bool { return e.Class() == cl }).Events()
				check("ClassGroupShareByIP("+cl.String()+")", st.ClassGroupShareByIP(cl, attr),
					groupShare(sub, func(e trace.Event) string { return attr(e.IP) }))
				check("ClassUniqueIPShare("+cl.String()+")", st.ClassUniqueIPShare(cl, attr), uniqueIPShare(sub, attr))
				check("ClassTaggedGroupShareByIP("+cl.String()+")",
					st.ClassTaggedGroupShareByIP(cl, "special", attr), groupShare(sub, tagAttr))
			}
			if len(tc.events) == 0 {
				// No events: every batch analysis is empty, not a map of zeros.
				for name, n := range map[string]int{
					"mix": len(mixOf(events)), "by peer": len(activityByPeer(events)),
					"by IP": len(activityByIP(events)), "unique-IP share": len(uniqueIPShare(events, attr)),
					"group share": len(groupShare(events, tagAttr)),
				} {
					if n != 0 {
						t.Errorf("empty %s has %d entries", name, n)
					}
				}
			}
		})
	}
}
