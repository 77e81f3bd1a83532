package dnslink

import (
	"net/netip"
	"testing"

	"tcsb/internal/dnssim"
	"tcsb/internal/ids"
)

func ip(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestParseTXT(t *testing.T) {
	for _, s := range []string{FormatIPFS(ids.CIDFromSeed(1)), FormatIPNS("k51abcdefgh")} {
		if !ParseTXT(s) {
			t.Errorf("ParseTXT(%q) rejected", s)
		}
	}
	bad := []string{
		"",
		"dnslink=",
		"dnslink=/ipfs/",
		"dnslink=/ipfs/short",
		"dnslink=/ipfs/has space in it",
		"dnslink=/bzz/bafyabc12345",
		"v=spf1 include:_spf.google.com ~all",
		"ipfs=/ipfs/bafyabc12345",
	}
	for _, s := range bad {
		if ParseTXT(s) {
			t.Errorf("ParseTXT(%q) accepted", s)
		}
	}
}

// buildUniverse creates a small DNSLink ecosystem:
//   - cloudflare-ipfs.com gateway with two Cloudflare IPs (passive DNS)
//   - ipfs.io gateway with one IP
//   - site1.com ALIAS→cloudflare gateway, valid dnslink
//   - site2.com with own A record (self-hosted proxy), valid dnslink
//   - site3.com CNAME'd to ipfs.io, valid dnslink (ipns)
//   - boring.com registered but no dnslink
//   - broken.com with malformed dnslink TXT
func buildUniverse() (*dnssim.Universe, []string) {
	u := dnssim.NewUniverse()
	cf1, cf2 := ip("104.17.0.1"), ip("104.17.0.2")
	io1 := ip("52.9.0.1")
	u.SetA("cloudflare-ipfs.com", cf1, cf2)
	u.SetA("ipfs.io", io1)
	u.ObservePassive("cloudflare-ipfs.com", cf1)
	u.ObservePassive("cloudflare-ipfs.com", cf2)
	u.ObservePassive("ipfs.io", io1)

	for _, d := range []string{"site1.com", "site2.com", "site3.com", "boring.com", "broken.com"} {
		u.RegisterDomain(d)
	}
	u.SetTXT("_dnslink.site1.com", FormatIPFS(ids.CIDFromSeed(1)))
	u.SetALIAS("site1.com", "cloudflare-ipfs.com")

	u.SetTXT("_dnslink.site2.com", FormatIPFS(ids.CIDFromSeed(2)))
	u.SetA("site2.com", ip("91.4.4.4"))

	u.SetTXT("_dnslink.site3.com", FormatIPNS("k51qzi5uqu5abcd"))
	u.SetCNAME("site3.com", "ipfs.io")

	u.SetTXT("_dnslink.broken.com", "dnslink=/bzz/notipfs123")

	return u, []string{"cloudflare-ipfs.com", "ipfs.io"}
}

func TestScan(t *testing.T) {
	u, gws := buildUniverse()
	s := NewScanner(u, gws)
	results := s.Scan()
	if len(results) != 3 {
		t.Fatalf("scan found %d DNSLink domains, want 3", len(results))
	}
	byDomain := map[string]Result{}
	for _, d := range []string{"site1.com", "site2.com", "site3.com"} {
		r, ok := s.ScanDomain(d)
		if !ok {
			t.Fatalf("%s: valid DNSLink entry not found", d) // site3's is an IPNS entry
		}
		byDomain[d] = r
	}
	if byDomain["site1.com"].Gateway != "cloudflare-ipfs.com" {
		t.Errorf("site1 gateway = %q", byDomain["site1.com"].Gateway)
	}
	if len(byDomain["site1.com"].IPs) != 2 {
		t.Errorf("site1 IPs = %v", byDomain["site1.com"].IPs)
	}
	if byDomain["site2.com"].Gateway != "" {
		t.Errorf("site2 should be non-gateway, got %q", byDomain["site2.com"].Gateway)
	}
	if byDomain["site3.com"].Gateway != "ipfs.io" {
		t.Errorf("site3 gateway = %q", byDomain["site3.com"].Gateway)
	}
}

func TestScanDomainNegative(t *testing.T) {
	u, gws := buildUniverse()
	s := NewScanner(u, gws)
	if _, ok := s.ScanDomain("boring.com"); ok {
		t.Error("domain without dnslink reported as using it")
	}
	if _, ok := s.ScanDomain("broken.com"); ok {
		t.Error("malformed dnslink accepted")
	}
	if _, ok := s.ScanDomain("nonexistent.com"); ok {
		t.Error("nonexistent domain accepted")
	}
}

func TestIPsByAttr(t *testing.T) {
	u, gws := buildUniverse()
	results := NewScanner(u, gws).Scan()
	cloud := map[string]string{
		"104.17.0.1": "cloudflare_inc", "104.17.0.2": "cloudflare_inc",
		"52.9.0.1": "amazon_aws", "91.4.4.4": "non-cloud",
	}
	attr := func(a netip.Addr) string { return cloud[a.String()] }
	got := IPsByAttr(results, attr)
	if got["cloudflare_inc"] != 2 || got["amazon_aws"] != 1 || got["non-cloud"] != 1 {
		t.Fatalf("IPsByAttr = %v", got)
	}
}

func TestGatewayShares(t *testing.T) {
	u, gws := buildUniverse()
	results := NewScanner(u, gws).Scan()
	shares := GatewayShares(results, "non-gateway")
	if shares["cloudflare-ipfs.com"] != 1.0/3 {
		t.Errorf("cloudflare share = %v", shares["cloudflare-ipfs.com"])
	}
	if shares["non-gateway"] != 1.0/3 {
		t.Errorf("non-gateway share = %v", shares["non-gateway"])
	}
}
