// Contentproviders: collect provider records for a daily CID sample with
// the paper's modified (exhaustive) FindProviders, verify reachability,
// and classify providers and content by their cloud reliance
// (Figs. 14-16).
package main

import (
	"fmt"
	"math/rand"
	"net/netip"

	"tcsb/internal/ids"
	"tcsb/internal/netsim"
	"tcsb/internal/provrecords"
	"tcsb/internal/report"
	"tcsb/internal/scenario"
)

func main() {
	cfg := scenario.DefaultConfig().Scaled(0.25)
	cfg.Seed = 13
	w := scenario.NewWorld(cfg)

	collector := provrecords.NewCollector(w.Net, w.CollectorID(),
		func(t ids.Key) []netsim.PeerInfo { return w.SeedsNear(t, 8) })
	rng := rand.New(rand.NewSource(99))

	var col provrecords.Collection
	fmt.Println("simulating 3 days; collecting each day's sampled CIDs...")
	for day := 0; day < 3; day++ {
		w.RunDays(1)
		sample := w.Monitor.SampleDay(int64(day), 150, rng)
		collector.CollectDayParallel(&col, sample, int64(day), 1)
		fmt.Printf("day %d: sampled %d CIDs\n", day, len(sample))
	}
	fmt.Printf("\ncollected %d (CID, day) entries, %d records, %d distinct providers\n\n",
		col.CIDs(), col.TotalRecords(), col.UniqueProviders())

	db := w.DB
	isCloud := func(ip netip.Addr) bool { return db.Lookup(ip).Cloud() }
	profiles := provrecords.Profiles(&col, isCloud)

	// Fig. 14: provider classification + relay usage.
	shares := provrecords.ClassShares(profiles)
	t := &report.Table{
		Title:   "Provider classification (paper Fig. 14)",
		Columns: []string{"class", "share"},
	}
	for _, cl := range []provrecords.Class{provrecords.NATed, provrecords.CloudBased, provrecords.NonCloudBased, provrecords.Hybrid} {
		t.AddRow(cl.String(), report.Pct(shares[cl]))
	}
	fmt.Println(t)
	fmt.Printf("NAT-ed providers relaying through cloud nodes: %s (paper: ~80%%)\n\n",
		report.Pct(provrecords.RelayCloudShare(profiles, isCloud)))

	// Fig. 15: provider popularity.
	pareto := provrecords.PopularityPareto(profiles)
	fmt.Println(report.CurveTable("Provider popularity (paper Fig. 15)", pareto,
		[]float64{0.01, 0.05, 0.10, 0.25}))

	// Fig. 16: content-level cloud reliance.
	cc := provrecords.ContentCloud(&col, isCloud)
	ct := &report.Table{
		Title:   "Content cloud reliance (paper Fig. 16)",
		Columns: []string{"metric", "value"},
	}
	ct.AddRow("CIDs with reachable providers", cc.CIDs)
	ct.AddRow(">=1 cloud provider", report.Pct(cc.AtLeastOneCloud))
	ct.AddRow(">=half cloud providers", report.Pct(cc.MajorityCloud))
	ct.AddRow("only cloud providers", report.Pct(cc.OnlyCloud))
	ct.AddRow(">=1 non-cloud provider", report.Pct(cc.AtLeastOneNonCloud))
	fmt.Println(ct)
}
