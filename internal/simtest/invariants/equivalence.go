package invariants

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"

	"tcsb/internal/core"
	"tcsb/internal/ids"
	"tcsb/internal/monitor"
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
// unique-IP and traffic shares, identity-tagged platform shares, daily
// CID samples, and the distinct-day set. Float shares compare exactly:
// both paths sum integer-valued event counts below 2^53, so bit-equal
// results are the contract, not an approximation.
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
	hydraLog := rawHydra.Filter(func(e trace.Event) bool {
		return e.Peer != crawlerID && e.Peer != collectorID
	})

	check := func(label string, fromSink, fromLog any) {
		if !reflect.DeepEqual(fromSink, fromLog) {
			vs.addf("sink-log-equivalence", "%s: streaming %v != batch %v", label, fromSink, fromLog)
		}
	}

	// --- Hydra vantage.
	hs, hev := o.HydraStats(), hydraLog.Events()
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
		sub := hydraLog.Filter(func(e trace.Event) bool { return e.Class() == cl }).Events()
		check(fmt.Sprintf("hydra class %s unique-IP share", cl),
			hs.ClassUniqueIPShare(cl, provAttr), uniqueIPShare(sub, provAttr))
		check(fmt.Sprintf("hydra class %s traffic share", cl),
			hs.ClassGroupShareByIP(cl, provAttr),
			groupShare(sub, func(e trace.Event) string { return provAttr(e.IP) }))
		check(fmt.Sprintf("hydra class %s platform share", cl),
			hs.ClassTaggedGroupShareByIP(cl, scenario.PlatformLabelHydra, w.PlatformOfIP),
			groupShare(sub, w.PlatformOf))
	}
	check("hydra unique-IP share", hs.UniqueIPShare(cloudAttr), uniqueIPShare(hev, cloudAttr))
	check("hydra traffic share", hs.GroupShareByIP(cloudAttr),
		groupShare(hev, func(e trace.Event) string { return cloudAttr(e.IP) }))
	check("hydra platform share", hs.TaggedGroupShareByIP(scenario.PlatformLabelHydra, w.PlatformOfIP),
		groupShare(hev, w.PlatformOf))

	// --- Bitswap monitor.
	ms, mev := o.MonitorStats(), monLog.Events()
	check("monitor mix", ms.Mix(), mixOf(mev))
	check("monitor activity by peer", peerActivity(ms), activityByPeer(mev))
	check("monitor activity by IP", ipActivity(ms), activityByIP(mev))
	check("monitor platform share", ms.TaggedGroupShareByIP(scenario.PlatformLabelHydra, w.PlatformOfIP),
		groupShare(mev, w.PlatformOf))
	check("monitor days", ms.Days(), monitor.Days(monLog))

	// Daily CID sampling: same rng seed on both paths must draw the
	// same sample from the same day sets.
	for _, day := range ms.Days() {
		a := w.Monitor.SampleDay(day, 25, rand.New(rand.NewSource(day^0x5eed)))
		b := monitor.DailySample(monLog, day, 25, rand.New(rand.NewSource(day^0x5eed)))
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
