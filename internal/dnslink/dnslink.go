// Package dnslink implements the paper's DNSLink measurement (Sections 2,
// 3 and 7): an active scan that, for every registered root domain,
// queries the TXT record of the _dnslink subdomain, validates the
// dnslink=/ipfs/<CID> (or /ipns/<key>) entry format from RFC 1464 /the
// DNSLink spec, resolves the domain's A records to find the HTTP gateway
// or proxy fronting the content, and attributes those IPs to gateways via
// passive DNS.
package dnslink

import (
	"net/netip"
	"slices"
	"strings"

	"tcsb/internal/dnssim"
	"tcsb/internal/ids"
)

// ParseTXT reports whether a TXT record value is a well-formed DNSLink
// entry: dnslink=/ipfs/<cid> or dnslink=/ipns/<peer key hash>.
func ParseTXT(txt string) bool {
	const prefix = "dnslink="
	if !strings.HasPrefix(txt, prefix) {
		return false
	}
	path := txt[len(prefix):]
	switch {
	case strings.HasPrefix(path, "/ipfs/"):
		return validIdentifier(path[len("/ipfs/"):])
	case strings.HasPrefix(path, "/ipns/"):
		return validIdentifier(path[len("/ipns/"):])
	}
	return false
}

func validIdentifier(s string) bool {
	if len(s) < 8 {
		return false
	}
	for _, r := range s {
		ok := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if !ok {
			return false
		}
	}
	return true
}

// FormatIPFS renders the TXT value publishing a CID.
func FormatIPFS(c ids.CID) string { return "dnslink=/ipfs/" + c.String() }

// FormatIPNS renders the TXT value publishing an IPNS key.
func FormatIPNS(key string) string { return "dnslink=/ipns/" + key }

// Result is one DNSLink domain's scan outcome.
type Result struct {
	// IPs are the A-record addresses serving the domain (the gateway or
	// proxy fronting the IPFS content).
	IPs []netip.Addr
	// Gateway is the public-gateway domain the A chain or passive DNS
	// attributes the IPs to ("" when none matches — a self-hosted or
	// unknown proxy, the paper's "non-gateway" bucket).
	Gateway string
}

// Scanner runs the active DNSLink measurement over a simulated universe.
type Scanner struct {
	u *dnssim.Universe
	// knownGateways maps gateway domain -> set of its IPs from passive
	// DNS, used to attribute A records to gateways.
	knownGateways map[string]map[netip.Addr]bool
	gatewayNames  []string
}

// NewScanner creates a scanner. gatewayDomains is the public gateway
// list; their IPs are taken from the universe's passive DNS data.
func NewScanner(u *dnssim.Universe, gatewayDomains []string) *Scanner {
	s := &Scanner{u: u, knownGateways: make(map[string]map[netip.Addr]bool)}
	for _, d := range gatewayDomains {
		ipSet := make(map[netip.Addr]bool)
		for _, ip := range u.PassiveIPs(d) {
			ipSet[ip] = true
		}
		s.knownGateways[d] = ipSet
		s.gatewayNames = append(s.gatewayNames, d)
	}
	return s
}

// ScanDomain checks one root domain for a valid DNSLink setup: at least
// one well-formed TXT value under _dnslink. The bool result reports
// whether the domain uses DNSLink at all.
func (s *Scanner) ScanDomain(domain string) (Result, bool) {
	txts, rcode := s.u.QueryTXT("_dnslink." + domain)
	if rcode != dnssim.NOERROR || !slices.ContainsFunc(txts, ParseTXT) {
		return Result{}, false
	}
	ips, _ := s.u.QueryA(domain)
	return Result{IPs: ips, Gateway: s.attributeGateway(domain, ips)}, true
}

// attributeGateway decides which public gateway serves the domain: first
// by the CNAME/ALIAS chain target, then by IP overlap with passive DNS.
func (s *Scanner) attributeGateway(domain string, ips []netip.Addr) string {
	target := s.u.CanonicalTarget(domain)
	if _, ok := s.knownGateways[target]; ok && target != domain {
		return target
	}
	for _, gw := range s.gatewayNames {
		for _, ip := range ips {
			if s.knownGateways[gw][ip] {
				return gw
			}
		}
	}
	return ""
}

// Scan runs the full active scan over every registered domain, returning
// only domains with valid DNSLink entries.
func (s *Scanner) Scan() []Result {
	var out []Result
	for _, d := range s.u.Domains() {
		if r, ok := s.ScanDomain(d); ok {
			out = append(out, r)
		}
	}
	return out
}

// IPsByAttr aggregates the scan results' gateway IPs under an attribute
// function (cloud provider, country) — the Fig. 17a distribution. Every
// distinct (domain, IP) pair counts once, matching the paper's
// IP-distribution view.
func IPsByAttr(results []Result, attr func(netip.Addr) string) map[string]float64 {
	out := make(map[string]float64)
	for _, r := range results {
		seen := make(map[netip.Addr]bool, len(r.IPs))
		for _, ip := range r.IPs {
			if seen[ip] {
				continue
			}
			seen[ip] = true
			out[attr(ip)]++
		}
	}
	return out
}

// GatewayShares returns the fraction of DNSLink domains fronted by each
// gateway domain, with "" mapped to the given non-gateway label — the
// Fig. 17b distribution.
func GatewayShares(results []Result, nonGatewayLabel string) map[string]float64 {
	out := make(map[string]float64)
	for _, r := range results {
		g := r.Gateway
		if g == "" {
			g = nonGatewayLabel
		}
		out[g]++
	}
	n := float64(len(results))
	if n == 0 {
		return out
	}
	for k := range out {
		out[k] /= n
	}
	return out
}
