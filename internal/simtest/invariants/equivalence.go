package invariants

import (
	"fmt"
	"math/rand"
	"reflect"

	"tcsb/internal/core"
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
	hs := o.HydraStats()
	check("hydra mix", hs.Mix(), hydraLog.Mix())
	check("hydra activity by peer", hs.ActivityByPeer(), hydraLog.ActivityByPeer())
	check("hydra activity by IP", hs.ActivityByIP(), hydraLog.ActivityByIP())
	check("hydra days-seen (CID)", hs.DaysSeenByCID(), trace.DaysSeenHistogram(hydraLog, trace.CIDKey))
	check("hydra days-seen (IP)", hs.DaysSeenByIP(), trace.DaysSeenHistogram(hydraLog, trace.IPKey))
	check("hydra days-seen (peer)", hs.DaysSeenByPeer(), trace.DaysSeenHistogram(hydraLog, trace.PeerKey))

	provAttr := w.ProviderAttr()
	cloudAttr := w.CloudAttr()
	for _, cl := range []trace.Class{trace.Download, trace.Advertise, trace.Other} {
		cl := cl
		sub := hydraLog.Filter(func(e trace.Event) bool { return e.Class() == cl })
		check(fmt.Sprintf("hydra class %s unique-IP share", cl),
			hs.ClassUniqueIPShare(cl, provAttr), sub.UniqueIPShare(provAttr))
		check(fmt.Sprintf("hydra class %s traffic share", cl),
			hs.ClassGroupShareByIP(cl, provAttr),
			sub.GroupShare(func(e trace.Event) string { return provAttr(e.IP) }))
		check(fmt.Sprintf("hydra class %s platform share", cl),
			hs.ClassTaggedGroupShareByIP(cl, scenario.PlatformLabelHydra, w.PlatformOfIP),
			sub.GroupShare(w.PlatformOf))
	}
	check("hydra unique-IP share", hs.UniqueIPShare(cloudAttr), hydraLog.UniqueIPShare(cloudAttr))
	check("hydra traffic share", hs.GroupShareByIP(cloudAttr),
		hydraLog.GroupShare(func(e trace.Event) string { return cloudAttr(e.IP) }))
	check("hydra platform share", hs.TaggedGroupShareByIP(scenario.PlatformLabelHydra, w.PlatformOfIP),
		hydraLog.GroupShare(w.PlatformOf))

	// --- Bitswap monitor.
	ms := o.MonitorStats()
	check("monitor mix", ms.Mix(), monLog.Mix())
	check("monitor activity by peer", ms.ActivityByPeer(), monLog.ActivityByPeer())
	check("monitor activity by IP", ms.ActivityByIP(), monLog.ActivityByIP())
	check("monitor platform share", ms.TaggedGroupShareByIP(scenario.PlatformLabelHydra, w.PlatformOfIP),
		monLog.GroupShare(w.PlatformOf))
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
