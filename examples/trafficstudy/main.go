// Trafficstudy: run the two monitoring vantage points of the paper — the
// Bitswap monitor and the Hydra booster — on a busy simulated network,
// then measure traffic centralization (Figs. 10-12) and the protocol mix
// (Section 5).
//
// The vantage points stream: every analysis below reads the bounded
// trace.Accum the pipelines fold events into, so no raw event log is
// ever materialized (set scenario.Config.RetainTrace to keep one).
package main

import (
	"fmt"
	"net/netip"

	"tcsb/internal/report"
	"tcsb/internal/scenario"
	"tcsb/internal/stats"
	"tcsb/internal/trace"
)

func main() {
	cfg := scenario.DefaultConfig().Scaled(0.25)
	cfg.Seed = 7
	w := scenario.NewWorld(cfg)

	fmt.Println("simulating 3 days of traffic...")
	w.RunDays(3)

	hydra := w.Hydra.Stats()
	bitswap := w.Monitor.Stats()
	fmt.Printf("hydra vantage: %d DHT messages; monitor: %d Bitswap broadcasts\n\n",
		hydra.Len(), bitswap.Len())

	// Section 5: protocol mix.
	mix := hydra.Mix()
	mt := &report.Table{Title: "DHT traffic mix (paper: 57/40/3)", Columns: []string{"class", "share"}}
	for _, cl := range []trace.Class{trace.Download, trace.Advertise, trace.Other} {
		mt.AddRow(cl.String(), report.Pct(mix[cl]))
	}
	fmt.Println(mt)

	// Fig. 11: IP-level centralization with the cloud split.
	cloudAttr := w.CloudAttr()
	group := func(ip netip.Addr) string { return cloudAttr(ip) }
	for _, v := range []struct {
		name  string
		stats *trace.Accum
	}{{"DHT (hydra)", hydra}, {"Bitswap (monitor)", bitswap}} {
		act := trace.Seq[netip.Addr](v.stats.EachIPActivity)
		t := &report.Table{
			Title:   fmt.Sprintf("%s — IP centralization (paper Fig. 11)", v.name),
			Columns: []string{"metric", "value"},
		}
		t.AddRow("top 5% of IPs' traffic share", report.Pct(trace.TopShare(act, 0.05)))
		for _, it := range stats.MapToItems(trace.GroupTrafficShare(act, group)) {
			t.AddRow("traffic share: "+it.Label, report.Pct(it.Count))
		}
		for _, it := range stats.MapToItems(trace.GroupMemberShare(act, group)) {
			t.AddRow("IP share: "+it.Label, report.Pct(it.Count))
		}
		fmt.Println(t)
	}

	// Fig. 13: platform attribution — hydra heads by identity (the
	// pipelines tag them at ingest), everything else by reverse DNS.
	fmt.Println(report.SharesTable(
		"Platforms, DHT download traffic (paper Fig. 13)", "platform",
		hydra.ClassTaggedGroupShareByIP(trace.Download, scenario.PlatformLabelHydra, w.PlatformOfIP)))
	fmt.Println(report.SharesTable(
		"Platforms, DHT advertise traffic (paper Fig. 13)", "platform",
		hydra.ClassTaggedGroupShareByIP(trace.Advertise, scenario.PlatformLabelHydra, w.PlatformOfIP)))
}
