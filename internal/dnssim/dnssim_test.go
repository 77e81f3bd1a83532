package dnssim

import (
	"net/netip"
	"testing"
)

func ip(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestRegisterAndSOA(t *testing.T) {
	u := NewUniverse()
	u.RegisterDomain("Example.COM.")
	doms := u.Domains()
	if len(doms) != 1 || doms[0] != "example.com" {
		t.Fatalf("Domains = %v", doms)
	}
}

func TestTXTQueries(t *testing.T) {
	u := NewUniverse()
	u.SetTXT("_dnslink.example.com", "dnslink=/ipfs/bafyabc123")
	txts, rc := u.QueryTXT("_dnslink.example.com")
	if rc != NOERROR || len(txts) != 1 {
		t.Fatalf("TXT = %v, rc=%v", txts, rc)
	}
	if _, rc := u.QueryTXT("_dnslink.missing.com"); rc != NXDOMAIN {
		t.Fatal("missing name should be NXDOMAIN")
	}
}

func TestAWithCNAMEChasing(t *testing.T) {
	u := NewUniverse()
	u.SetA("gw.cloudflare-ipfs.com", ip("104.17.0.1"), ip("104.17.0.2"))
	u.SetCNAME("sub.example.com", "gw.cloudflare-ipfs.com")
	u.SetALIAS("example.com", "gw.cloudflare-ipfs.com")

	for _, name := range []string{"sub.example.com", "example.com", "gw.cloudflare-ipfs.com"} {
		ips, rc := u.QueryA(name)
		if rc != NOERROR || len(ips) != 2 {
			t.Fatalf("QueryA(%s) = %v, rc=%v", name, ips, rc)
		}
	}
	if got := u.CanonicalTarget("sub.example.com"); got != "gw.cloudflare-ipfs.com" {
		t.Fatalf("CanonicalTarget = %q", got)
	}
	if got := u.CanonicalTarget("gw.cloudflare-ipfs.com"); got != "gw.cloudflare-ipfs.com" {
		t.Fatalf("CanonicalTarget(self) = %q", got)
	}
}

func TestCNAMELoopBounded(t *testing.T) {
	u := NewUniverse()
	u.SetCNAME("a.example.com", "b.example.com")
	u.SetCNAME("b.example.com", "a.example.com")
	ips, rc := u.QueryA("a.example.com")
	if rc != NOERROR || ips != nil {
		t.Fatalf("loop resolution = %v, rc=%v", ips, rc)
	}
	// CanonicalTarget must terminate too.
	_ = u.CanonicalTarget("a.example.com")
}

func TestPassiveDNS(t *testing.T) {
	u := NewUniverse()
	u.ObservePassive("ipfs.io", ip("104.17.0.1"))
	u.ObservePassive("ipfs.io", ip("104.17.0.9"))
	u.ObservePassive("ipfs.io", ip("104.17.0.1")) // dedup
	got := u.PassiveIPs("ipfs.io")
	if len(got) != 2 {
		t.Fatalf("PassiveIPs = %v", got)
	}
	if got[0].Compare(got[1]) >= 0 {
		t.Fatal("PassiveIPs not sorted")
	}
	if len(u.PassiveIPs("unknown.io")) != 0 {
		t.Fatal("unknown domain has passive IPs")
	}
}

func TestRDNSAndPlatform(t *testing.T) {
	u := NewUniverse()
	addr := ip("52.1.2.3")
	u.RegisterRDNS(addr, FormatPTR(addr, "web3.storage"))
	host := u.RDNS(addr)
	if host != "52-1-2-3.web3.storage" {
		t.Fatalf("RDNS = %q", host)
	}
	if got := PlatformFromHostname(host); got != "web3.storage" {
		t.Fatalf("platform = %q", got)
	}
	if PlatformFromHostname("") != "" || PlatformFromHostname("localhost") != "" {
		t.Fatal("degenerate hostnames should map to empty platform")
	}
	if u.RDNS(ip("1.2.3.4")) != "" {
		t.Fatal("unknown IP has rDNS")
	}
}
