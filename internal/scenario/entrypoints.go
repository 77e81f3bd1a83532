package scenario

import (
	"fmt"
	"net/netip"

	"tcsb/internal/dnslink"
	"tcsb/internal/dnssim"
	"tcsb/internal/ens"
	"tcsb/internal/gateway"
	"tcsb/internal/ids"
	"tcsb/internal/ipdb"
)

// ProviderAttr returns the counting attribute function "cloud provider of
// this IP" (non-cloud label for everything without a database entry).
func (w *World) ProviderAttr() func(netip.Addr) string {
	db := w.DB
	return func(ip netip.Addr) string { return db.Lookup(ip).Provider }
}

// CountryAttr returns the geolocation attribute function.
func (w *World) CountryAttr() func(netip.Addr) string {
	db := w.DB
	return func(ip netip.Addr) string {
		c := db.Lookup(ip).Country
		if c == "" {
			c = "??"
		}
		return c
	}
}

// CloudAttr maps an IP to "cloud" / "non-cloud".
func (w *World) CloudAttr() func(netip.Addr) string {
	db := w.DB
	return func(ip netip.Addr) string {
		if db.Lookup(ip).Cloud() {
			return "cloud"
		}
		return ipdb.NonCloud
	}
}

// PlatformLabelUnknownAWS is Fig. 13's bucket for Amazon-hosted traffic
// the paper could not attribute to a platform.
const PlatformLabelUnknownAWS = "amazon_aws (unknown)"

// PlatformLabelOther is Fig. 13's residual bucket.
const PlatformLabelOther = "other"

// PlatformLabelHydra is the Fig. 13 bucket for Hydra-head senders,
// attributed by overlay identity (the TagPeer predicate of the vantage
// pipelines) rather than by IP.
const PlatformLabelHydra = "hydra"

// PlatformOfIP is the IP half of the Fig. 13 attribution: reverse DNS
// first, then the unattributable-AWS bucket, then "other". Hydra-head
// senders are identified by peer ID instead (the paper obtained the
// Protocol Labs head set): streaming analyses apply PlatformOfIP to the
// untagged traffic of a trace.Accum, with tagged (Hydra-head) traffic
// pooled under PlatformLabelHydra.
func (w *World) PlatformOfIP(ip netip.Addr) string {
	if host := w.DNS.RDNS(ip); host != "" {
		if p := dnssim.PlatformFromHostname(host); p != "" {
			return p
		}
	}
	if w.DB.Lookup(ip).Provider == ipdb.AmazonAWS {
		return PlatformLabelUnknownAWS
	}
	return PlatformLabelOther
}

// PublicGateways returns the gateways on the public gateway-checker list
// (the paper's [40]). The ipfs-bank-style platform serves HTTP but is not
// listed there; the paper identifies it via rDNS instead.
func (w *World) PublicGateways() []*gateway.Gateway {
	var out []*gateway.Gateway
	for _, gw := range w.Gateways {
		if gw != w.IPFSBank {
			out = append(out, gw)
		}
	}
	return out
}

// GatewayDomains returns the public gateway domain list.
func (w *World) GatewayDomains() []string {
	var out []string
	for _, gw := range w.PublicGateways() {
		out = append(out, gw.Domain())
	}
	return out
}

// PopulateDNSLink creates n DNSLink-using domains over the simulated DNS
// universe, with a fronting mix calibrated to Fig. 17: about half of the
// fronting IPs are Cloudflare (public gateway or Cloudflare-proxied own
// site), a fifth non-cloud self-hosted proxies, and the rest spread over
// AWS, DataCamp, Google and smaller hosts. Roughly a fifth of domains
// point at listed public gateways, matching the paper's 21%.
func (w *World) PopulateDNSLink(n int) {
	for i := 0; i < n; i++ {
		domain := fmt.Sprintf("dapp%03d.example", i)
		w.DNS.RegisterDomain(domain)

		// DNSLink entry: 80% direct CID, 20% IPNS.
		if w.Rng.Float64() < 0.8 {
			c := w.catalog[w.Rng.Intn(len(w.catalog))].cid
			w.DNS.SetTXT("_dnslink."+domain, dnslink.FormatIPFS(c))
		} else {
			key := fmt.Sprintf("k51qzi5uqu5d%08x", w.Rng.Uint32())
			w.DNS.SetTXT("_dnslink."+domain, dnslink.FormatIPNS(key))
		}

		r := w.Rng.Float64()
		switch {
		case r < 0.12: // public CDN gateway via ALIAS
			w.DNS.SetALIAS(domain, w.Gateways[0].Domain())
		case r < 0.15: // ipfs.io public gateway via CNAME
			w.DNS.SetCNAME(domain, "ipfs.io")
		case r < 0.46: // own website reverse-proxied by Cloudflare
			w.DNS.SetA(domain, w.Alloc.CloudIP(ipdb.Cloudflare, ""))
		case r < 0.70: // self-hosted non-cloud proxy
			country := w.pickWeighted(w.Cfg.ResidentialCountryWeights)
			w.DNS.SetA(domain, w.Alloc.ResidentialIP(country))
		case r < 0.79: // own AWS instance
			w.DNS.SetA(domain, w.Alloc.CloudIP(ipdb.AmazonAWS, ""))
		case r < 0.85:
			w.DNS.SetA(domain, w.Alloc.CloudIP(ipdb.DataCamp, ""))
		case r < 0.90:
			w.DNS.SetA(domain, w.Alloc.CloudIP(ipdb.GoogleCloud, ""))
		case r < 0.94:
			w.DNS.SetA(domain, w.Alloc.CloudIP(ipdb.Google, ""))
		default: // smaller hosts
			providers := []string{ipdb.Hetzner, ipdb.OVH, ipdb.DigitalOcean, ipdb.Linode}
			w.DNS.SetA(domain, w.Alloc.CloudIP(providers[w.Rng.Intn(len(providers))], ""))
		}
	}
}

// PopulateENS builds ENS resolver contracts with setContenthash events.
// Referenced content is dapp/web3 material hosted on long-running server
// nodes — mostly cloud VMs (which is how the paper finds 82% of
// ENS-referenced content on cloud nodes, led by choopa/vultr/contabo),
// with a non-cloud minority. The content is persistent: owners keep it
// provided for the life of the name.
func (w *World) PopulateENS(names int) []*ens.Resolver {
	resolvers := []*ens.Resolver{ens.NewResolver(), ens.NewResolver(), ens.NewResolver()}
	// Dapp content pool: one CID per ~2 names, hosted by ordinary
	// servers (82% cloud).
	var pool []ids.CID
	for i := 0; i < names/2+1; i++ {
		owner := w.pickENSHost(w.Rng.Float64() < 0.82)
		if owner == nil {
			continue
		}
		pool = append(pool, w.publish(owner, catalogEntry{bornTick: w.tick, persistent: true}, false))
	}
	for i := 0; i < names; i++ {
		name := fmt.Sprintf("dapp%04d.eth", i)
		r := resolvers[w.Rng.Intn(len(resolvers))]
		switch {
		case w.Rng.Float64() < 0.05: // noise: non-IPFS contenthash
			r.SetContenthash(name, ens.EncodeContenthash(ens.ProtoSwarm, w.nextCID()))
		case w.Rng.Float64() < 0.05: // noise: other record updates
			r.SetAddr(name, "0xabcdef")
		default:
			c := pool[w.Rng.Intn(len(pool))]
			r.SetContenthash(name, ens.EncodeContenthash(ens.ProtoIPFS, c))
			// A few names get updated later — the extractor must keep the
			// latest record.
			if w.Rng.Float64() < 0.1 {
				c2 := pool[w.Rng.Intn(len(pool))]
				r.SetContenthash(name, ens.EncodeContenthash(ens.ProtoIPFS, c2))
			}
		}
	}
	return resolvers
}

// pickENSHost draws an ordinary (non-platform) server: cloud or
// non-cloud as requested.
func (w *World) pickENSHost(cloud bool) *Actor {
	for tries := 0; tries < 256; tries++ {
		a := w.Actors[w.servers[w.Rng.Intn(len(w.servers))]]
		if a == nil || a.Platform != "" || !a.Online {
			continue
		}
		if a.Cloud == cloud {
			return a
		}
	}
	return nil
}
