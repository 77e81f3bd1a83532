package invariants

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"tcsb/internal/core"
	"tcsb/internal/ids"
	"tcsb/internal/netsim"
	"tcsb/internal/scenario"
	"tcsb/internal/trace"
)

// CheckStreamingEquivalence verifies the sink-vs-log conservation law:
// every analysis folded incrementally into the streaming trace.Accum
// must equal the batch result computed by scanning the retained raw
// log. It requires a world built with scenario.Config.RetainTrace (both
// views exist); on a streaming-only observatory it reports a single
// setup violation.
//
// The comparison covers every Accum-derived analysis the experiments
// use: mix, per-peer/per-IP activity, days-seen histograms, per-class
// unique-IP and traffic shares, identity-tagged platform shares, and
// daily CID samples. Float shares compare exactly: both paths sum
// integer-valued event counts below 2^53, so bit-equal results are the
// contract, not an approximation.
func CheckStreamingEquivalence(o *core.Observatory) []Violation {
	var vs violations
	w := o.World
	rawHydra, monLog := w.Hydra.Log(), w.Monitor.Log()
	if rawHydra == nil || monLog == nil {
		vs.addf("sink-log-equivalence", "campaign did not retain raw traces; build the world with RetainTrace")
		return vs
	}
	// The Hydra Accum excludes the observatory's own measurement
	// identities at ingest; filter the raw log the same way.
	crawlerID, collectorID := w.CrawlerID(), w.CollectorID()
	hev := filter(rawHydra.Events(), func(e trace.Event) bool {
		return e.Peer != crawlerID && e.Peer != collectorID
	})
	// Fig. 13 attribution per event: Hydra heads by identity, everyone
	// else by source IP.
	platformOf := func(e trace.Event) string {
		if w.IsHydraHead(e.Peer) {
			return scenario.PlatformLabelHydra
		}
		return w.PlatformOfIP(e.IP)
	}

	check := func(label string, fromSink, fromLog any) {
		if !reflect.DeepEqual(fromSink, fromLog) {
			vs.addf("sink-log-equivalence", "%s: streaming %v != batch %v", label, fromSink, fromLog)
		}
	}

	// --- Hydra vantage.
	hs := o.HydraStats()
	check("hydra mix", hs.Mix(), mixOf(hev))
	check("hydra activity by peer", peerActivity(hs), activityByPeer(hev))
	check("hydra activity by IP", ipActivity(hs), activityByIP(hev))
	check("hydra days-seen (CID)", hs.DaysSeenByCID(), daysSeenHistogram(hev, cidKey))
	check("hydra days-seen (IP)", hs.DaysSeenByIP(), daysSeenHistogram(hev, ipKey))
	check("hydra days-seen (peer)", hs.DaysSeenByPeer(), daysSeenHistogram(hev, peerKey))

	provAttr := w.ProviderAttr()
	cloudAttr := w.CloudAttr()
	for _, cl := range []trace.Class{trace.Download, trace.Advertise, trace.Other} {
		cl := cl
		sub := filter(hev, func(e trace.Event) bool { return e.Class() == cl })
		check(fmt.Sprintf("hydra class %s unique-IP share", cl),
			hs.ClassUniqueIPShare(cl, provAttr), uniqueIPShare(sub, provAttr))
		check(fmt.Sprintf("hydra class %s traffic share", cl),
			hs.ClassGroupShareByIP(cl, provAttr),
			groupShare(sub, func(e trace.Event) string { return provAttr(e.IP) }))
		check(fmt.Sprintf("hydra class %s platform share", cl),
			hs.ClassTaggedGroupShareByIP(cl, scenario.PlatformLabelHydra, w.PlatformOfIP),
			groupShare(sub, platformOf))
	}
	check("hydra unique-IP share", hs.UniqueIPShare(cloudAttr), uniqueIPShare(hev, cloudAttr))
	check("hydra traffic share", hs.GroupShareByIP(cloudAttr),
		groupShare(hev, func(e trace.Event) string { return cloudAttr(e.IP) }))
	check("hydra platform share", hs.TaggedGroupShareByIP(scenario.PlatformLabelHydra, w.PlatformOfIP),
		groupShare(hev, platformOf))

	// --- Bitswap monitor.
	ms, mev := o.MonitorStats(), monLog.Events()
	check("monitor mix", ms.Mix(), mixOf(mev))
	check("monitor activity by peer", peerActivity(ms), activityByPeer(mev))
	check("monitor activity by IP", ipActivity(ms), activityByIP(mev))
	check("monitor platform share", ms.TaggedGroupShareByIP(scenario.PlatformLabelHydra, w.PlatformOfIP),
		groupShare(mev, platformOf))

	// Daily CID sampling: same rng seed on both paths must draw the
	// same sample from the same day sets.
	for _, day := range daysOf(mev) {
		a := w.Monitor.SampleDay(day, 25, rand.New(rand.NewSource(day^0x5eed)))
		b := dailySample(mev, day, 25, rand.New(rand.NewSource(day^0x5eed)))
		check(fmt.Sprintf("monitor day %d sample", day), a, b)
	}

	// Guard against vacuous passes: a campaign with an empty vantage
	// stream would "pass" every comparison trivially.
	if hs.Len() == 0 {
		vs.addf("sink-log-equivalence", "hydra vantage saw no traffic; equivalence check is vacuous")
	}
	if ms.Len() == 0 {
		vs.addf("sink-log-equivalence", "bitswap monitor saw no traffic; equivalence check is vacuous")
	}
	return vs
}

// The batch reference model: each analysis below scans a retained raw
// event slice, the way the paper's scripts scan a vantage point's logs.
// CheckStreamingEquivalence holds every streaming trace.Accum analysis
// equal to it.

// filter returns the events keep accepts, in order, on fresh storage.
func filter(events []trace.Event, keep func(trace.Event) bool) []trace.Event {
	var out []trace.Event
	for _, e := range events {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// mixOf returns the fraction of events per traffic class (the paper: 57%
// download, 40% advertise, 3% other in the Hydra logs). Only classes
// that occur appear as keys.
func mixOf(events []trace.Event) map[trace.Class]float64 {
	counts := make(map[trace.Class]float64)
	for _, e := range events {
		counts[e.Class()]++
	}
	return divideBy(counts, float64(len(events)))
}

// activityByPeer returns per-peer message counts.
func activityByPeer(events []trace.Event) map[ids.PeerID]int64 {
	out := make(map[ids.PeerID]int64)
	for _, e := range events {
		out[e.Peer]++
	}
	return out
}

// activityByIP returns per-IP message counts over valid IPs.
func activityByIP(events []trace.Event) map[netip.Addr]int64 {
	out := make(map[netip.Addr]int64)
	for _, e := range events {
		if e.IP.IsValid() {
			out[e.IP]++
		}
	}
	return out
}

// peerActivity collects an accumulator's per-peer counts into a map.
func peerActivity(a *trace.Accum) map[ids.PeerID]int64 {
	out := make(map[ids.PeerID]int64)
	a.EachPeerActivity(func(p ids.PeerID, n int64) { out[p] = n })
	return out
}

// ipActivity collects an accumulator's per-IP counts into a map.
func ipActivity(a *trace.Accum) map[netip.Addr]int64 {
	out := make(map[netip.Addr]int64)
	a.EachIPActivity(func(ip netip.Addr, n int64) { out[ip] = n })
	return out
}

// daysSeenHistogram computes, for one identifier dimension, how many
// identifiers were observed on exactly d distinct days — the Fig. 9
// histograms for CIDs, IPs and peer IDs. key returns ("", false) to skip
// an event.
func daysSeenHistogram(events []trace.Event, key func(trace.Event) (string, bool)) map[int]int {
	days := make(map[string]map[int64]bool)
	for _, e := range events {
		k, ok := key(e)
		if !ok {
			continue
		}
		m := days[k]
		if m == nil {
			m = make(map[int64]bool)
			days[k] = m
		}
		m[e.Time/trace.SecondsPerDay] = true
	}
	hist := make(map[int]int)
	for _, m := range days {
		hist[len(m)]++
	}
	return hist
}

// cidKey keys events by CID for daysSeenHistogram.
func cidKey(e trace.Event) (string, bool) {
	if e.CID.IsZero() {
		return "", false
	}
	return e.CID.String(), true
}

// ipKey keys events by source IP.
func ipKey(e trace.Event) (string, bool) {
	if !e.IP.IsValid() {
		return "", false
	}
	return e.IP.String(), true
}

// peerKey keys events by sender peer ID.
func peerKey(e trace.Event) (string, bool) {
	if e.Peer.IsZero() {
		return "", false
	}
	return e.Peer.String(), true
}

// daysOf returns the distinct virtual day indices of events, ascending.
func daysOf(events []trace.Event) []int64 {
	seen := make(map[int64]bool)
	var out []int64
	for _, e := range events {
		if d := e.Time / trace.SecondsPerDay; !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// cidsOnDay returns the distinct non-zero CIDs of the events on the
// given virtual day, sorted by key.
func cidsOnDay(events []trace.Event, day int64) []ids.CID {
	seen := make(map[ids.CID]bool)
	var out []ids.CID
	for _, e := range events {
		if !e.CID.IsZero() && e.Time/trace.SecondsPerDay == day && !seen[e.CID] {
			seen[e.CID] = true
			out = append(out, e.CID)
		}
	}
	sortByKey(out)
	return out
}

// dailySample is the paper's daily sampled Bitswap CIDs dataset over
// raw events: the day's distinct CIDs, key-sorted, shuffled and cut to
// sampleSize, then key-sorted again. If fewer were seen, all are
// returned.
func dailySample(events []trace.Event, day int64, sampleSize int, rng *rand.Rand) []ids.CID {
	all := cidsOnDay(events, day)
	if len(all) <= sampleSize {
		return all
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	out := all[:sampleSize]
	sortByKey(out)
	return out
}

// sortByKey sorts CIDs by DHT key, the order Accum.CIDsOnDay returns.
func sortByKey(cids []ids.CID) {
	sort.Slice(cids, func(i, j int) bool { return cids[i].Key().Cmp(cids[j].Key()) < 0 })
}

// groupShare computes each group's share of total traffic, where group
// assigns every event a label (cloud provider via the sender IP,
// platform via rDNS, ...).
func groupShare(events []trace.Event, group func(trace.Event) string) map[string]float64 {
	counts := make(map[string]float64)
	for _, e := range events {
		counts[group(e)]++
	}
	return divideBy(counts, float64(len(events)))
}

// uniqueIPShare computes each group's share of distinct IPs (the "by
// count" bars of Fig. 12 top), as opposed to groupShare's
// traffic-weighted view (Fig. 12 bottom).
func uniqueIPShare(events []trace.Event, attr func(netip.Addr) string) map[string]float64 {
	seen := make(map[netip.Addr]bool)
	counts := make(map[string]float64)
	for _, e := range events {
		if !e.IP.IsValid() || seen[e.IP] {
			continue
		}
		seen[e.IP] = true
		counts[attr(e.IP)]++
	}
	return divideBy(counts, float64(len(seen)))
}

// divideBy turns counts into shares of total in place; a zero total
// leaves them as they are.
func divideBy[K comparable](counts map[K]float64, total float64) map[K]float64 {
	if total == 0 {
		return counts
	}
	for k := range counts {
		counts[k] /= total
	}
	return counts
}

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
// Each day's CID set, the input of the daily sample, is compared too.
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
				sub := filter(events, func(e trace.Event) bool { return e.Class() == cl })
				check("ClassGroupShareByIP("+cl.String()+")", st.ClassGroupShareByIP(cl, attr),
					groupShare(sub, func(e trace.Event) string { return attr(e.IP) }))
				check("ClassUniqueIPShare("+cl.String()+")", st.ClassUniqueIPShare(cl, attr), uniqueIPShare(sub, attr))
				check("ClassTaggedGroupShareByIP("+cl.String()+")",
					st.ClassTaggedGroupShareByIP(cl, "special", attr), groupShare(sub, tagAttr))
			}
			for _, d := range append(daysOf(events), 9) { // day 9 has no events
				check(fmt.Sprintf("CIDsOnDay(%d)", d), st.CIDsOnDay(d), cidsOnDay(events, d))
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
