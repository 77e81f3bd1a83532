// Package dnssim is the offline substitute for the DNS infrastructure the
// paper measures against: authoritative zone data (ICANN CZDS, .se/.nu/.ch
// zone files), an active scanner (zdns + Cloudflare Public DNS), passive
// DNS (SIE Europe), and reverse DNS.
//
// It models a universe of zones with the record types DNSLink cares about
// (SOA, TXT, A, CNAME, ALIAS), query resolution with CNAME/ALIAS chasing,
// a passive-DNS table mapping domains to every IP observed for them
// across vantage points (which defeats geo-dependent answers, the reason
// the paper uses passive data for gateway IPs), and an rDNS registry used
// for the platform attribution of Fig. 13.
package dnssim

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
)

// RCode is a DNS response code.
type RCode int

// Response codes used by the scanner.
const (
	NOERROR RCode = iota
	NXDOMAIN
)

// zone is the record set of one fully-qualified name.
type zone struct {
	txt   []string
	a     []netip.Addr
	cname string
	alias string
	soa   bool
}

// Universe is a simulated DNS namespace. Not safe for concurrent writes.
type Universe struct {
	zones map[string]*zone
	// passive maps domain -> set of IPs observed by passive DNS.
	passive map[string]map[netip.Addr]bool
	rdns    map[netip.Addr]string
}

// NewUniverse creates an empty namespace.
func NewUniverse() *Universe {
	return &Universe{
		zones:   make(map[string]*zone),
		passive: make(map[string]map[netip.Addr]bool),
		rdns:    make(map[netip.Addr]string),
	}
}

func norm(name string) string {
	return strings.TrimSuffix(strings.ToLower(name), ".")
}

func (u *Universe) zoneFor(name string, create bool) *zone {
	n := norm(name)
	z := u.zones[n]
	if z == nil && create {
		z = &zone{}
		u.zones[n] = z
	}
	return z
}

// RegisterDomain marks a name as registered (it will answer SOA).
func (u *Universe) RegisterDomain(name string) {
	u.zoneFor(name, true).soa = true
}

// SetTXT sets the TXT record values of a name.
func (u *Universe) SetTXT(name string, values ...string) {
	u.zoneFor(name, true).txt = append([]string(nil), values...)
}

// SetA sets the A records of a name.
func (u *Universe) SetA(name string, ips ...netip.Addr) {
	u.zoneFor(name, true).a = append([]netip.Addr(nil), ips...)
}

// SetCNAME points a name at another (subdomain-style gateway setup).
func (u *Universe) SetCNAME(name, target string) {
	u.zoneFor(name, true).cname = norm(target)
}

// SetALIAS points a root domain at another name (ALIAS/ANAME-style).
func (u *Universe) SetALIAS(name, target string) {
	u.zoneFor(name, true).alias = norm(target)
}

// Domains returns all registered domain names, sorted — the scanner's
// input list (the paper's 286M root domains, at simulation scale).
func (u *Universe) Domains() []string {
	var out []string
	for n, z := range u.zones {
		if z.soa {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// QueryTXT returns the TXT values of a name.
func (u *Universe) QueryTXT(name string) ([]string, RCode) {
	z := u.zones[norm(name)]
	if z == nil {
		return nil, NXDOMAIN
	}
	return append([]string(nil), z.txt...), NOERROR
}

// maxChain bounds CNAME/ALIAS chasing.
const maxChain = 8

// QueryA resolves A records, following CNAME and ALIAS chains.
func (u *Universe) QueryA(name string) ([]netip.Addr, RCode) {
	n := norm(name)
	for hop := 0; hop < maxChain; hop++ {
		z := u.zones[n]
		if z == nil {
			return nil, NXDOMAIN
		}
		if len(z.a) > 0 {
			return append([]netip.Addr(nil), z.a...), NOERROR
		}
		next := z.cname
		if next == "" {
			next = z.alias
		}
		if next == "" {
			return nil, NOERROR
		}
		n = next
	}
	return nil, NOERROR
}

// CanonicalTarget returns the end of the CNAME/ALIAS chain for a name
// (the name itself if it has none) — used to attribute a DNSLink domain
// to the gateway it points at.
func (u *Universe) CanonicalTarget(name string) string {
	n := norm(name)
	for hop := 0; hop < maxChain; hop++ {
		z := u.zones[n]
		if z == nil {
			return n
		}
		next := z.cname
		if next == "" {
			next = z.alias
		}
		if next == "" {
			return n
		}
		n = next
	}
	return n
}

// --- Passive DNS ---

// ObservePassive records a (domain, IP) association as passive DNS would
// capture it from live resolution traffic anywhere in the world.
func (u *Universe) ObservePassive(domain string, ip netip.Addr) {
	d := norm(domain)
	m := u.passive[d]
	if m == nil {
		m = make(map[netip.Addr]bool)
		u.passive[d] = m
	}
	m[ip] = true
}

// PassiveIPs returns every IP passive DNS has associated with the domain,
// sorted for determinism.
func (u *Universe) PassiveIPs(domain string) []netip.Addr {
	m := u.passive[norm(domain)]
	out := make([]netip.Addr, 0, len(m))
	for ip := range m {
		out = append(out, ip)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// --- Reverse DNS ---

// RegisterRDNS sets the PTR hostname for an IP.
func (u *Universe) RegisterRDNS(ip netip.Addr, hostname string) {
	u.rdns[ip] = norm(hostname)
}

// RDNS returns the PTR hostname for an IP ("" if none).
func (u *Universe) RDNS(ip netip.Addr) string { return u.rdns[ip] }

// PlatformFromHostname extracts a platform label from an rDNS hostname
// the way the paper's Fig. 13 groups reverse lookups: the registrable
// suffix identifies the operator (e.g. "node3.us-east.web3.storage" →
// "web3.storage"). Hostnames with fewer than two labels map to "".
func PlatformFromHostname(hostname string) string {
	h := norm(hostname)
	if h == "" {
		return ""
	}
	parts := strings.Split(h, ".")
	if len(parts) < 2 {
		return ""
	}
	return strings.Join(parts[len(parts)-2:], ".")
}

// FormatPTR builds a synthetic PTR hostname for an IP under a platform
// domain, e.g. FormatPTR(ip, "web3.storage") → "52-1-2-3.web3.storage".
func FormatPTR(ip netip.Addr, platform string) string {
	return fmt.Sprintf("%s.%s", strings.ReplaceAll(ip.String(), ".", "-"), platform)
}
