// Entrypoints: measure the bridges between the classic web and IPFS —
// DNSLink domains (active DNS scanning), public HTTP gateways (unique-
// content probing through the Bitswap monitor), and ENS contenthash
// records (event-log extraction) — reproducing Section 7 of the paper.
package main

import (
	"fmt"
	"sort"

	"tcsb/internal/dnslink"
	"tcsb/internal/ens"
	"tcsb/internal/gwprobe"
	"tcsb/internal/ids"
	"tcsb/internal/netsim"
	"tcsb/internal/provrecords"
	"tcsb/internal/report"
	"tcsb/internal/scenario"
)

func main() {
	cfg := scenario.DefaultConfig().Scaled(0.25)
	cfg.Seed = 3
	w := scenario.NewWorld(cfg)
	w.PopulateDNSLink(300)
	resolvers := w.PopulateENS(200)
	w.RunDays(1)

	// --- DNSLink (Fig. 17) ---
	scanner := dnslink.NewScanner(w.DNS, w.GatewayDomains())
	results := scanner.Scan()
	fmt.Printf("DNSLink scan: %d domains with valid entries\n\n", len(results))
	fmt.Println(report.SharesTable("DNSLink fronting IPs by provider (Fig. 17a)",
		"provider", normalize(dnslink.IPsByAttr(results, w.ProviderAttr()))))
	fmt.Println(report.SharesTable("DNSLink domains by gateway (Fig. 17b)",
		"gateway", dnslink.GatewayShares(results, "non-gateway")))

	// --- Gateway identification (Section 3 / Fig. 18) ---
	prober := gwprobe.New(w.Monitor, 0xbeef, w.Net.Online)
	census := prober.Census(w.PublicGateways(), 12)
	domains := make([]string, 0, len(census))
	for domain := range census {
		domains = append(domains, domain)
	}
	sort.Strings(domains)
	total := 0
	for _, domain := range domains {
		fmt.Printf("gateway %-22s -> %d overlay IDs discovered\n", domain, len(census[domain]))
		total += len(census[domain])
	}
	fmt.Printf("census: %d overlay IDs total (ground truth for public gateways: %d)\n\n",
		total, countPublicTruth(w))

	// --- ENS (Fig. 20) ---
	records := ens.Extract(resolvers)
	fmt.Printf("ENS extraction: %d ipfs-ns records\n", len(records))
	collector := provrecords.NewCollector(w.Net, w.CollectorID(),
		func(t ids.Key) []netsim.PeerInfo { return w.SeedsNear(t, 8) })
	cloud, totalIPs := 0, 0
	providerDist := map[string]float64{}
	seen := map[string]bool{}
	for _, r := range records {
		for _, rec := range collector.CollectOne(nil, r.CID, 0).Records {
			for _, a := range rec.Provider.Addrs {
				if !a.IP.IsValid() || seen[a.IP.String()] {
					continue
				}
				seen[a.IP.String()] = true
				totalIPs++
				info := w.DB.Lookup(a.IP)
				providerDist[info.Provider]++
				if info.Cloud() {
					cloud++
				}
			}
		}
	}
	fmt.Println(report.SharesTable("ENS content providers (Fig. 20a)", "provider", normalize(providerDist)))
	if totalIPs > 0 {
		fmt.Printf("cloud share of ENS provider IPs: %s (paper: 82%%)\n",
			report.Pct(float64(cloud)/float64(totalIPs)))
	}
}

func normalize(m map[string]float64) map[string]float64 {
	var total float64
	for _, v := range m {
		total += v
	}
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if total > 0 {
			out[k] = v / total
		}
	}
	return out
}

// countPublicTruth counts the true overlay IDs of the public gateways.
func countPublicTruth(w *scenario.World) int {
	n := 0
	for _, gw := range w.PublicGateways() {
		n += len(gw.OverlayIDs())
	}
	return n
}
