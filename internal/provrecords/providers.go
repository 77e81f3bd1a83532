package provrecords

import (
	"net/netip"

	"tcsb/internal/ids"
	"tcsb/internal/netsim"
	"tcsb/internal/stats"
)

// Class is a provider's hosting classification (Fig. 14).
type Class int

// Provider classes. A provider advertising only circuit addresses is
// NAT-ed; direct addresses are attributed via the cloud database, with
// peers mixing cloud and non-cloud direct addresses labelled hybrid.
const (
	NATed Class = iota
	CloudBased
	NonCloudBased
	Hybrid
)

// String returns the figure label.
func (c Class) String() string {
	switch c {
	case NATed:
		return "NAT-ed"
	case CloudBased:
		return "cloud"
	case NonCloudBased:
		return "non-cloud"
	default:
		return "hybrid"
	}
}

// CloudFunc decides whether an IP belongs to a cloud provider.
type CloudFunc func(netip.Addr) bool

// ProviderProfile aggregates everything observed about one provider peer
// across the whole collection.
type ProviderProfile struct {
	Peer ids.PeerID
	// Appearances is the number of provider records the peer occurs in.
	Appearances int
	// Class is the hosting classification.
	Class Class
	// RelayIPs are the circuit-relay addresses seen for NAT-ed peers.
	RelayIPs []netip.Addr
}

// ClassifyRecord classifies a single provider record by its addresses.
func ClassifyRecord(rec netsim.ProviderRecord, isCloud CloudFunc) Class {
	hasCircuit, hasCloud, hasNonCloud := false, false, false
	for _, a := range rec.Provider.Addrs {
		if a.Circuit {
			hasCircuit = true
			continue
		}
		if !a.IP.IsValid() || a.IsLocal() {
			continue
		}
		if isCloud(a.IP) {
			hasCloud = true
		} else {
			hasNonCloud = true
		}
	}
	switch {
	case hasCloud && hasNonCloud:
		return Hybrid
	case hasCloud:
		return CloudBased
	case hasNonCloud:
		return NonCloudBased
	case hasCircuit:
		return NATed
	default:
		return NATed // no usable addresses: treat as unreachable fringe
	}
}

// Profiles builds per-provider profiles from a collection. Peers seen
// with different address mixes across records are classified over the
// union of their addresses (so cloud+non-cloud across records → hybrid,
// matching the paper's "moved during the collection" note).
func Profiles(col *Collection, isCloud CloudFunc) []ProviderProfile {
	type acc struct {
		appearances int
		hasCircuit  bool
		hasCloud    bool
		hasNonCloud bool
		relayIPs    map[netip.Addr]bool
	}
	accs := make(map[ids.PeerID]*acc)
	var order []ids.PeerID
	for _, cr := range col.PerCID {
		for _, rec := range cr.Records {
			a := accs[rec.Provider.ID]
			if a == nil {
				a = &acc{relayIPs: make(map[netip.Addr]bool)}
				accs[rec.Provider.ID] = a
				order = append(order, rec.Provider.ID)
			}
			a.appearances++
			for _, addr := range rec.Provider.Addrs {
				if addr.Circuit {
					a.hasCircuit = true
					if addr.IP.IsValid() {
						a.relayIPs[addr.IP] = true
					}
					continue
				}
				if !addr.IP.IsValid() || addr.IsLocal() {
					continue
				}
				if isCloud(addr.IP) {
					a.hasCloud = true
				} else {
					a.hasNonCloud = true
				}
			}
		}
	}
	out := make([]ProviderProfile, 0, len(order))
	for _, id := range order {
		a := accs[id]
		var cl Class
		switch {
		case a.hasCloud && a.hasNonCloud:
			cl = Hybrid
		case a.hasCloud:
			cl = CloudBased
		case a.hasNonCloud:
			cl = NonCloudBased
		default:
			cl = NATed
		}
		p := ProviderProfile{Peer: id, Appearances: a.appearances, Class: cl}
		for ip := range a.relayIPs {
			p.RelayIPs = append(p.RelayIPs, ip)
		}
		out = append(out, p)
	}
	return out
}

// ClassShares returns the fraction of providers per class — the top plot
// of Fig. 14 (NAT-ed 35.57%, cloud 45%, non-cloud 18%, hybrid 0.58% in
// the paper).
func ClassShares(profiles []ProviderProfile) map[Class]float64 {
	out := make(map[Class]float64)
	for _, p := range profiles {
		out[p.Class]++
	}
	n := float64(len(profiles))
	if n == 0 {
		return out
	}
	for c := range out {
		out[c] /= n
	}
	return out
}

// RelayCloudShare returns the fraction of NAT-ed providers whose relay is
// cloud-hosted — the bottom plot of Fig. 14 (~80% in the paper). NAT-ed
// providers with several relays count by majority.
func RelayCloudShare(profiles []ProviderProfile, isCloud CloudFunc) float64 {
	cloud, total := 0, 0
	for _, p := range profiles {
		if p.Class != NATed || len(p.RelayIPs) == 0 {
			continue
		}
		total++
		n := 0
		for _, ip := range p.RelayIPs {
			if isCloud(ip) {
				n++
			}
		}
		if 2*n >= len(p.RelayIPs) {
			cloud++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(cloud) / float64(total)
}

// PopularityPareto returns the Pareto curve of provider appearances in
// records (Fig. 15) plus the share of record appearances held by each
// class among the top fraction of providers.
func PopularityPareto(profiles []ProviderProfile) []stats.ParetoPoint {
	weights := make([]float64, len(profiles))
	for i, p := range profiles {
		weights[i] = float64(p.Appearances)
	}
	return stats.Pareto(weights)
}

// ClassAppearanceShares returns, per class, the fraction of all record
// appearances generated by providers of that class (Fig. 15's cloud 70% /
// non-cloud 22% / NAT-ed <8% split).
func ClassAppearanceShares(profiles []ProviderProfile) map[Class]float64 {
	out := make(map[Class]float64)
	var total float64
	for _, p := range profiles {
		out[p.Class] += float64(p.Appearances)
		total += float64(p.Appearances)
	}
	if total == 0 {
		return out
	}
	for c := range out {
		out[c] /= total
	}
	return out
}
