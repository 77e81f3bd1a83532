package experiments

// The catalog: one registered experiment per table and figure of the
// paper's evaluation, in paper order. The rendering here is the single
// copy shared by the CLI, the benchmarks, and EXPERIMENTS.md.

import (
	"fmt"

	"tcsb/internal/core"
	"tcsb/internal/provrecords"
	"tcsb/internal/report"
	"tcsb/internal/trace"
)

func init() {
	Register(Experiment{
		Name:        "table1",
		Section:     "§2, Table 1",
		Description: "counting methodologies (G-IP vs A-N) on the worked example dataset",
		Run:         runTable1,
	})
	Register(Experiment{
		Name:        "section3",
		Section:     "§3",
		Description: "crawl dataset shape: crawls, discovered/crawlable peers, unique IPs, IP rotation",
		Run:         runSection3,
	})
	Register(Experiment{
		Name:        "fig3",
		Section:     "§4.1, Fig. 3",
		Description: "DHT participants by cloud status under both methodologies",
		Run:         runFig3,
	})
	Register(Experiment{
		Name:        "fig4",
		Section:     "§4.1, Fig. 4",
		Description: "cloud share vs cumulative crawls: A-N stable, G-IP declining",
		Run:         runFig4,
	})
	Register(Experiment{
		Name:        "fig5",
		Section:     "§4.1, Fig. 5",
		Description: "nodes by cloud provider; top-3 concentration",
		Run:         runFig5,
	})
	Register(Experiment{
		Name:        "fig6",
		Section:     "§4.1, Fig. 6",
		Description: "nodes by country under both methodologies",
		Run:         runFig6,
	})
	Register(Experiment{
		Name:        "fig7",
		Section:     "§4.2, Fig. 7",
		Description: "degree distribution of the crawled topology",
		Run:         runFig7,
	})
	Register(Experiment{
		Name:        "churn",
		Section:     "§4",
		Description: "peer liveness by cloud status: uptime, sessions, IP rotation",
		Run:         runChurn,
	})
	Register(Experiment{
		Name:        "fig8",
		Section:     "§4.2, Fig. 8",
		Description: "resilience to random vs degree-targeted node removal",
		Run:         runFig8,
	})
	Register(Experiment{
		Name:        "section5",
		Section:     "§5",
		Description: "DHT traffic class mix at the Hydra vantage",
		Run:         runSection5,
	})
	Register(Experiment{
		Name:        "fig9",
		Section:     "§5.1, Fig. 9",
		Description: "identifier request frequency in days seen (CIDs, IPs, peer IDs)",
		Run:         runFig9,
	})
	Register(Experiment{
		Name:        "fig10",
		Section:     "§5.2, Fig. 10",
		Description: "per-peer traffic Pareto for DHT and Bitswap, gateway split",
		Run:         runFig10,
	})
	Register(Experiment{
		Name:        "fig11",
		Section:     "§5.2, Fig. 11",
		Description: "per-IP traffic Pareto for DHT and Bitswap, cloud split",
		Run:         runFig11,
	})
	Register(Experiment{
		Name:        "fig12",
		Section:     "§5.3, Fig. 12",
		Description: "cloud share per traffic type, by unique IPs vs by volume",
		Run:         runFig12,
	})
	Register(Experiment{
		Name:        "fig13",
		Section:     "§5.4, Fig. 13",
		Description: "traffic attribution to platforms via Hydra set and rDNS",
		Run:         runFig13,
	})
	Register(Experiment{
		Name:        "fig14",
		Section:     "§6.1, Fig. 14",
		Description: "provider classification (NAT-ed / cloud / non-cloud / hybrid) and relay usage",
		Run:         runFig14,
	})
	Register(Experiment{
		Name:        "fig15",
		Section:     "§6.1, Fig. 15",
		Description: "provider popularity Pareto and record appearances by class",
		Run:         runFig15,
	})
	Register(Experiment{
		Name:        "fig16",
		Section:     "§6.2, Fig. 16",
		Description: "CIDs by cloud reliance of their provider sets",
		Run:         runFig16,
	})
	Register(Experiment{
		Name:        "fig17",
		Section:     "§7.1, Fig. 17",
		Description: "DNSLink scan: fronting IPs by provider, domains by gateway",
		Run:         runFig17,
	})
	Register(Experiment{
		Name:        "fig18",
		Section:     "§7.2, Fig. 18",
		Description: "gateway frontend vs overlay IPs by cloud provider",
		Run:         runFig18,
	})
	Register(Experiment{
		Name:        "fig19",
		Section:     "§7.2, Fig. 19",
		Description: "gateway frontend vs overlay IPs by country",
		Run:         runFig19,
	})
	Register(Experiment{
		Name:        "fig20",
		Section:     "§7.3, Fig. 20",
		Description: "ENS-referenced content providers and their cloud share",
		Run:         runFig20,
	})
}

func runTable1(*core.Observatory) []*report.Table {
	r := core.Table1()
	t := &report.Table{
		Title:   "Table 1 — counting methodologies on the example dataset",
		Columns: []string{"methodology", "DE", "US"},
	}
	t.AddRow("G-IP (paper: DE=2, US=2)", r.GIP["DE"], r.GIP["US"])
	t.AddRow("A-N  (paper: DE=0.5, US=1)", r.AN["DE"], r.AN["US"])
	return []*report.Table{t}
}

func runSection3(o *core.Observatory) []*report.Table {
	s := o.Section3()
	t := &report.Table{
		Title:   "Section 3 — crawl dataset shape (paper at 12x scale: 25771.6 disc / 17991.4 crawlable / 53898 peers / 86064 IPs / 1.82 IP-per-peer)",
		Columns: []string{"metric", "value"},
	}
	t.AddRow("crawls", s.Crawls)
	t.AddRow("mean discovered/crawl", fmt.Sprintf("%.1f", s.MeanDiscovered))
	t.AddRow("mean crawlable/crawl", fmt.Sprintf("%.1f", s.MeanCrawlable))
	t.AddRow("unique peer IDs", s.UniquePeers)
	t.AddRow("unique IPs", s.UniqueIPs)
	t.AddRow("mean IPs per peer", fmt.Sprintf("%.2f", s.MeanIPsPerPeer))
	t.AddRow("modeled crawl duration (s)", fmt.Sprintf("%.1f", s.MeanModeledDur))
	return []*report.Table{t}
}

func runFig3(o *core.Observatory) []*report.Table {
	r := o.Fig3CloudStatus()
	agg := func(m map[string]float64) (cloud, non, both float64) {
		for k, v := range m {
			switch k {
			case "non-cloud":
				non += v
			case "BOTH":
				both += v
			default:
				cloud += v
			}
		}
		return
	}
	t := &report.Table{
		Title:   "Fig 3 — DHT participants by cloud status (paper: A-N 79.6% cloud / 18.6% non-cloud; G-IP 39.9% / 60.1%)",
		Columns: []string{"methodology", "cloud", "non-cloud", "BOTH"},
	}
	c, n, b := agg(r.ANShares)
	t.AddRow("A-N", report.Pct(c), report.Pct(n), report.Pct(b))
	c, n, b = agg(r.GIPShares)
	t.AddRow("G-IP", report.Pct(c), report.Pct(n), report.Pct(b))
	return []*report.Table{t}
}

func runFig4(o *core.Observatory) []*report.Table {
	r := o.Fig4Cumulative()
	t := &report.Table{
		Title:   "Fig 4 — cloud share vs cumulative crawls (paper: A-N steady, G-IP declining)",
		Columns: []string{"crawls", "A-N cloud share", "G-IP cloud share"},
	}
	for i := range r.AN {
		if (i+1)%2 == 0 || i == 0 || i == len(r.AN)-1 {
			t.AddRow(fmt.Sprintf("%d", r.AN[i].Crawls), report.Pct(r.AN[i].Value), report.Pct(r.GIP[i].Value))
		}
	}
	return []*report.Table{t}
}

func runFig5(o *core.Observatory) []*report.Table {
	r := o.Fig5CloudProviders()
	tables := renderDistTopN("Fig 5 — nodes by cloud provider (paper A-N: choopa 29.3%, top-3 51.9%; G-IP choopa 13.8%)", r, 12)
	summary := &report.Table{
		Title:   "Fig 5 — provider concentration",
		Columns: []string{"metric", "value"},
	}
	summary.AddRow("top-3 provider share (A-N, excl. non-cloud/BOTH)",
		report.Pct(core.TopNShare(r.AN, 3, "non-cloud", "BOTH")))
	return append(tables, summary)
}

func runFig6(o *core.Observatory) []*report.Table {
	r := o.Fig6Geolocation()
	return renderDistTopN("Fig 6 — nodes by country (paper A-N: US 47.4%, DE 13.7%, KR 5.2%, non-top-10 13.3%)", r, 12)
}

func runFig7(o *core.Observatory) []*report.Table {
	r := o.Fig7Degrees()
	t := &report.Table{
		Title:   "Fig 7 — degree distribution (paper: out-degree in a tight band; in-degree p90 < ~500 with heavy tail)",
		Columns: []string{"metric", "value"},
	}
	t.AddRow("out-degree p10", fmt.Sprintf("%.0f", r.OutP10))
	t.AddRow("out-degree p90", fmt.Sprintf("%.0f", r.OutP90))
	t.AddRow("in-degree p90", fmt.Sprintf("%.0f", r.InP90))
	t.AddRow("in-degree max", fmt.Sprintf("%.0f", r.MaxIn))
	return []*report.Table{t}
}

func runChurn(o *core.Observatory) []*report.Table {
	r := o.SectionChurn()
	t := &report.Table{
		Title:   "Section 4 — peer liveness by cloud status (paper: non-cloud nodes short-lived, IP-rotating)",
		Columns: []string{"group", "peers", "mean uptime", "median sessions", "mean IPs/peer"},
	}
	for _, g := range r.Groups {
		t.AddRow(g.Group, g.Peers, report.Pct(g.MeanUptime),
			fmt.Sprintf("%.1f", g.MedianSessions), fmt.Sprintf("%.2f", g.MeanIPs))
	}
	return []*report.Table{t}
}

func runFig8(o *core.Observatory) []*report.Table {
	r := o.Fig8Resilience()
	t := &report.Table{
		Title:   "Fig 8 — resilience to node removal (paper: random 96% largest CC at 90% removed; targeted full partition at ~60%)",
		Columns: []string{"removed", "random mean", "±95% CI", "targeted"},
	}
	for i, f := range r.Fractions {
		t.AddRow(report.Pct(f), report.Pct(r.RandomMean[i]),
			fmt.Sprintf("%.3f", r.RandomCI95[i]), report.Pct(r.Targeted[i]))
	}
	summary := &report.Table{
		Title:   "Fig 8 — targeted removal",
		Columns: []string{"metric", "value"},
	}
	summary.AddRow("full partition at (fraction removed)", report.Pct(r.FullPartitionAt))
	return []*report.Table{t, summary}
}

func runSection5(o *core.Observatory) []*report.Table {
	mix := o.Section5Mix()
	t := &report.Table{
		Title:   "Section 5 — DHT traffic mix at the Hydra vantage (paper: 57% download, 40% advertise, 3% other)",
		Columns: []string{"class", "share"},
	}
	for _, cl := range []trace.Class{trace.Download, trace.Advertise, trace.Other} {
		t.AddRow(cl.String(), report.Pct(mix[cl]))
	}
	return []*report.Table{t}
}

func runFig9(o *core.Observatory) []*report.Table {
	r := o.Fig9Frequency()
	t := &report.Table{
		Title:   "Fig 9 — identifier frequency in days seen (paper: most CIDs 1-3 days; IPs and peer IDs mostly short-lived)",
		Columns: []string{"identifier", "seen <=3 days", "distinct"},
	}
	count := func(h map[int]int) int {
		n := 0
		for _, v := range h {
			n += v
		}
		return n
	}
	t.AddRow("CID", report.Pct(core.ShortLivedShare(r.CIDDays, 3)), count(r.CIDDays))
	t.AddRow("IP", report.Pct(core.ShortLivedShare(r.IPDays, 3)), count(r.IPDays))
	t.AddRow("peerID", report.Pct(core.ShortLivedShare(r.PeerDays, 3)), count(r.PeerDays))
	return []*report.Table{t}
}

func paretoTable(title string, r core.ParetoResult, groups []string) *report.Table {
	t := &report.Table{Title: title, Columns: []string{"metric", "value"}}
	t.AddRow("top 5% traffic share", report.Pct(r.Top5Share))
	for _, g := range groups {
		t.AddRow("traffic share: "+g, report.Pct(r.GroupTraffic[g]))
		t.AddRow("member share: "+g, report.Pct(r.GroupMembers[g]))
	}
	return t
}

func runFig10(o *core.Observatory) []*report.Table {
	dht, bs := o.Fig10PeerPareto()
	return []*report.Table{
		paretoTable("Fig 10a — DHT peerID Pareto (paper: top 5% ≈ 97% of traffic; gateway share ≈1%)",
			dht, []string{"gateway", "non-gateway"}),
		paretoTable("Fig 10b — Bitswap peerID Pareto (paper: gateway share ≈18%)",
			bs, []string{"gateway", "non-gateway"}),
	}
}

func runFig11(o *core.Observatory) []*report.Table {
	dht, bs := o.Fig11IPPareto()
	return []*report.Table{
		paretoTable("Fig 11a — DHT IP Pareto (paper: top 5% ≈ 94%; cloud ≈85% of traffic)",
			dht, []string{"cloud", "non-cloud"}),
		paretoTable("Fig 11b — Bitswap IP Pareto (paper: cloud ≈42% of traffic)",
			bs, []string{"cloud", "non-cloud"}),
	}
}

func runFig12(o *core.Observatory) []*report.Table {
	r := o.Fig12CloudPerTrafficType()
	summary := &report.Table{
		Title:   "Fig 12 — cloud per traffic type (paper: ~35% of IPs cloud, ~93% of traffic cloud; AWS 68% of download traffic)",
		Columns: []string{"metric", "value"},
	}
	summary.AddRow("cloud share by unique IPs", report.Pct(r.CloudByCount))
	summary.AddRow("cloud share by traffic", report.Pct(r.CloudByTraffic))
	out := []*report.Table{summary}
	for _, cl := range []trace.Class{trace.Download, trace.Advertise} {
		out = append(out,
			topN(report.SharesTable(
				fmt.Sprintf("Fig 12 — providers by unique IPs (%s)", cl), "provider", r.UniqueIPShares[cl]), 8),
			topN(report.SharesTable(
				fmt.Sprintf("Fig 12 — providers by traffic volume (%s)", cl), "provider", r.TrafficShares[cl]), 8))
	}
	return out
}

func runFig13(o *core.Observatory) []*report.Table {
	r := o.Fig13Platforms()
	return []*report.Table{
		topN(report.SharesTable("Fig 13 — platforms, all DHT traffic (paper: hydra 35%)", "platform", r.DHTAll), 10),
		topN(report.SharesTable("Fig 13 — platforms, DHT download traffic (paper: hydra 50%)", "platform", r.DHTDownload), 10),
		topN(report.SharesTable("Fig 13 — platforms, DHT advertise traffic (paper: web3/nft.storage dominate)", "platform", r.DHTAdvertise), 10),
		topN(report.SharesTable("Fig 13 — platforms, Bitswap traffic (paper: ipfs-bank dominates)", "platform", r.Bitswap), 10),
	}
}

func runFig14(o *core.Observatory) []*report.Table {
	shares, relayCloud := o.Fig14ProviderClass()
	t := &report.Table{
		Title:   "Fig 14 — provider classification (paper: NAT-ed 35.6%, cloud 45%, non-cloud 18%, hybrid 0.6%; ~80% of relays cloud)",
		Columns: []string{"class", "share"},
	}
	for _, cl := range []provrecords.Class{provrecords.NATed, provrecords.CloudBased, provrecords.NonCloudBased, provrecords.Hybrid} {
		t.AddRow(cl.String(), report.Pct(shares[cl]))
	}
	summary := &report.Table{
		Title:   "Fig 14 — relay usage",
		Columns: []string{"metric", "value"},
	}
	summary.AddRow("NAT-ed providers using cloud relays", report.Pct(relayCloud))
	return []*report.Table{t, summary}
}

func runFig15(o *core.Observatory) []*report.Table {
	pareto, classShares := o.Fig15ProviderPopularity()
	curve := report.CurveTable(
		"Fig 15 — provider popularity Pareto (paper: top 1% of peers in ~90% of records)",
		pareto, []float64{0.01, 0.05, 0.10, 0.25, 0.50})
	t := &report.Table{
		Title:   "Fig 15 — record appearances by provider class (paper: cloud 70%, non-cloud 22%, NAT-ed <8%)",
		Columns: []string{"class", "share of appearances"},
	}
	for _, cl := range []provrecords.Class{provrecords.CloudBased, provrecords.NonCloudBased, provrecords.NATed, provrecords.Hybrid} {
		t.AddRow(cl.String(), report.Pct(classShares[cl]))
	}
	return []*report.Table{curve, t}
}

func runFig16(o *core.Observatory) []*report.Table {
	r := o.Fig16ContentCloud()
	t := &report.Table{
		Title:   "Fig 16 — CIDs by cloud reliance (paper: ≥1 cloud 95%, ≥half 91%, only-cloud 23%, ≥1 non-cloud 77%)",
		Columns: []string{"metric", "value"},
	}
	t.AddRow("CIDs with providers", r.CIDs)
	t.AddRow(">=1 cloud provider", report.Pct(r.AtLeastOneCloud))
	t.AddRow(">=half cloud providers", report.Pct(r.MajorityCloud))
	t.AddRow("only cloud providers", report.Pct(r.OnlyCloud))
	t.AddRow(">=1 non-cloud provider", report.Pct(r.AtLeastOneNonCloud))
	return []*report.Table{t}
}

func runFig17(o *core.Observatory) []*report.Table {
	r := o.Fig17DNSLink()
	summary := &report.Table{
		Title:   "Fig 17 — DNSLink scan summary",
		Columns: []string{"metric", "value"},
	}
	summary.AddRow("DNSLink domains found", r.Domains)
	summary.AddRow("share pointing at public gateways", report.Pct(r.GatewayIPShare))
	return []*report.Table{
		topN(report.SharesTable(
			"Fig 17a — DNSLink fronting IPs by provider (paper: cloudflare ~50%, non-cloud ~20%)",
			"provider", r.ByProvider), 8),
		topN(report.SharesTable(
			"Fig 17b — DNSLink domains by gateway (paper: non-gateway plurality, then cloudflare-ipfs.com)",
			"gateway", r.ByGateway), 8),
		summary,
	}
}

func runFig18(o *core.Observatory) []*report.Table {
	r := o.Fig18GatewayProviders()
	return []*report.Table{
		topN(report.SharesTable("Fig 18 — gateway frontend IPs by provider (paper: cloudflare dominates)", "provider", r.Frontend), 8),
		topN(report.SharesTable("Fig 18 — gateway overlay IPs by provider", "provider", r.Overlay), 8),
	}
}

func runFig19(o *core.Observatory) []*report.Table {
	r := o.Fig19GatewayGeo()
	return []*report.Table{
		topN(report.SharesTable("Fig 19 — gateway frontend IPs by country (paper: US+DE majority)", "country", r.Frontend), 8),
		topN(report.SharesTable("Fig 19 — gateway overlay IPs by country", "country", r.Overlay), 8),
	}
}

func runFig20(o *core.Observatory) []*report.Table {
	r := o.Fig20ENS()
	summary := &report.Table{
		Title:   "Fig 20 — ENS extraction summary",
		Columns: []string{"metric", "value"},
	}
	summary.AddRow("ENS records", r.Records)
	summary.AddRow("resolved CIDs", r.ResolvedCID)
	summary.AddRow("unique provider IPs", r.UniqueIPs)
	summary.AddRow("cloud share", report.Pct(r.CloudShare))
	return []*report.Table{
		topN(report.SharesTable("Fig 20a — ENS content providers (paper: 82% cloud; choopa/vultr/contabo lead)", "provider", r.ByProvider), 8),
		topN(report.SharesTable("Fig 20b — ENS content provider countries (paper: US+DE ~60%)", "country", r.ByCountry), 8),
		summary,
	}
}

// renderDistTopN renders a DistResult as two truncated share tables,
// A-N first.
func renderDistTopN(title string, d core.DistResult, n int) []*report.Table {
	return []*report.Table{
		topN(report.SharesTable(title+" — A-N (avg over crawls, unique nodes)", "label", d.AN), n),
		topN(report.SharesTable(title+" — G-IP (global unique IPs)", "label", d.GIP), n),
	}
}

// topN truncates a shares table (already sorted descending by
// report.SharesTable) to its n largest rows plus a residual row.
func topN(t *report.Table, n int) *report.Table {
	if len(t.Rows) <= n {
		return t
	}
	out := &report.Table{Title: t.Title, Columns: t.Columns}
	out.Rows = append(out.Rows, t.Rows[:n]...)
	out.AddRow("(+ smaller)", fmt.Sprintf("%d rows", len(t.Rows)-n))
	return out
}
