package counting

import (
	"math"
	"net/netip"
	"testing"

	"tcsb/internal/ids"
)

// table1Rows reproduces the example crawl dataset of Table 1 exactly.
//
//	Crawl  Peer  IP   Geo
//	1      p1    a1   DE
//	1      p1    a2   DE
//	1      p2    a3   US
//	2      p2    a2   DE
//	2      p2    a3   US
//	2      p2    a4   US
func table1Rows() ([]Row, AttrFunc) {
	p1 := ids.PeerIDFromSeed(1)
	p2 := ids.PeerIDFromSeed(2)
	a1 := netip.MustParseAddr("91.0.0.1") // DE
	a2 := netip.MustParseAddr("91.0.0.2") // DE
	a3 := netip.MustParseAddr("73.0.0.3") // US
	a4 := netip.MustParseAddr("73.0.0.4") // US
	geo := map[netip.Addr]string{a1: "DE", a2: "DE", a3: "US", a4: "US"}
	attr := func(ip netip.Addr) string { return geo[ip] }
	rows := []Row{
		{1, p1, a1},
		{1, p1, a2},
		{1, p2, a3},
		{2, p2, a2},
		{2, p2, a3},
		{2, p2, a4},
	}
	return rows, attr
}

func TestTable1GIP(t *testing.T) {
	rows, attr := table1Rows()
	got := New(rows).GIP(attr)
	if got["DE"] != 2 || got["US"] != 2 {
		t.Fatalf("G-IP = %v, want DE=2 US=2 (paper Table 1)", got)
	}
}

func TestTable1AN(t *testing.T) {
	rows, attr := table1Rows()
	got := New(rows).AN(attr, MajorityVote)
	if got["DE"] != 0.5 {
		t.Errorf("A-N DE = %v, want 0.5 (paper Table 1)", got["DE"])
	}
	if got["US"] != 1.0 {
		t.Errorf("A-N US = %v, want 1.0 (paper Table 1)", got["US"])
	}
}

func TestMajorityVote(t *testing.T) {
	cases := []struct {
		in   []string
		want string
	}{
		{[]string{"US", "US", "DE"}, "US"},
		{[]string{"DE"}, "DE"},
		{[]string{"US", "DE"}, "DE"}, // tie broken lexicographically
		{nil, ""},
	}
	for _, c := range cases {
		if got := MajorityVote(c.in); got != c.want {
			t.Errorf("MajorityVote(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCloudBothClassifier(t *testing.T) {
	cl := CloudBothClassifier("non-cloud")
	cases := []struct {
		in   []string
		want string
	}{
		{[]string{"amazon_aws", "amazon_aws"}, "amazon_aws"},
		{[]string{"amazon_aws", "choopa", "choopa"}, "choopa"},
		{[]string{"amazon_aws", "non-cloud"}, BothLabel},
		{[]string{"non-cloud", "non-cloud"}, "non-cloud"},
		{[]string{"non-cloud"}, "non-cloud"},
	}
	for _, c := range cases {
		if got := cl(c.in); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPrefix(t *testing.T) {
	rows, attr := table1Rows()
	d := New(rows)
	if d.Crawls() != 2 {
		t.Fatalf("Crawls = %d", d.Crawls())
	}
	p1 := d.Prefix(1)
	if p1.Crawls() != 1 || p1.Rows() != 3 {
		t.Fatalf("Prefix(1): crawls=%d rows=%d", p1.Crawls(), p1.Rows())
	}
	// Prefix(1) A-N over one crawl: p1 majority DE, p2 US.
	got := p1.AN(attr, MajorityVote)
	if got["DE"] != 1 || got["US"] != 1 {
		t.Fatalf("Prefix(1) A-N = %v", got)
	}
	// Prefix beyond range returns the same dataset.
	if d.Prefix(10) != d {
		t.Error("Prefix beyond crawl count should return the receiver")
	}
}

func TestANIPRotationInflation(t *testing.T) {
	// A churny peer that rotates IPs every crawl: G-IP counts it N times,
	// A-N counts it once — the paper's core methodological argument.
	p := ids.PeerIDFromSeed(1)
	var rows []Row
	for crawl := 1; crawl <= 10; crawl++ {
		ip := netip.AddrFrom4([4]byte{91, 0, 0, byte(crawl)})
		rows = append(rows, Row{Crawl: crawl, Peer: p, IP: ip})
	}
	d := New(rows)
	attr := func(netip.Addr) string { return "DE" }
	if got := d.GIP(attr)["DE"]; got != 10 {
		t.Errorf("G-IP counted %v, want 10 (inflation)", got)
	}
	if got := d.AN(attr, MajorityVote)["DE"]; got != 1 {
		t.Errorf("A-N counted %v, want 1 (stable peer)", got)
	}
}

func TestANChurnWeighting(t *testing.T) {
	// A peer present in 3 of 10 crawls weighs 0.3 under A-N.
	p := ids.PeerIDFromSeed(1)
	stable := ids.PeerIDFromSeed(2)
	ipP := netip.MustParseAddr("91.0.0.1")
	ipS := netip.MustParseAddr("73.0.0.1")
	var rows []Row
	for crawl := 1; crawl <= 10; crawl++ {
		rows = append(rows, Row{Crawl: crawl, Peer: stable, IP: ipS})
		if crawl <= 3 {
			rows = append(rows, Row{Crawl: crawl, Peer: p, IP: ipP})
		}
	}
	attr := func(ip netip.Addr) string {
		if ip == ipP {
			return "DE"
		}
		return "US"
	}
	got := New(rows).AN(attr, MajorityVote)
	if math.Abs(got["DE"]-0.3) > 1e-12 {
		t.Errorf("A-N DE = %v, want 0.3", got["DE"])
	}
	if got["US"] != 1 {
		t.Errorf("A-N US = %v, want 1", got["US"])
	}
}

func TestCumulativeRatio(t *testing.T) {
	rows, attr := table1Rows()
	d := New(rows)
	ratio := func(ds *Dataset) float64 {
		gip := ds.GIP(attr)
		total := gip["DE"] + gip["US"]
		if total == 0 {
			return 0
		}
		return gip["DE"] / total
	}
	pts := d.CumulativeRatio(ratio)
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	// After crawl 1: IPs a1,a2 (DE), a3 (US) -> 2/3.
	if math.Abs(pts[0].Value-2.0/3) > 1e-12 {
		t.Errorf("point 1 = %v, want 2/3", pts[0].Value)
	}
	// After both crawls: 2 DE / 4 total.
	if pts[1].Value != 0.5 {
		t.Errorf("point 2 = %v, want 0.5", pts[1].Value)
	}
	if pts[0].Crawls != 1 || pts[1].Crawls != 2 {
		t.Error("crawl counts wrong")
	}
}

func TestEmptyDataset(t *testing.T) {
	d := New(nil)
	if len(d.AN(func(netip.Addr) string { return "x" }, MajorityVote)) != 0 {
		t.Error("AN on empty dataset should be empty")
	}
	if len(d.GIP(func(netip.Addr) string { return "x" })) != 0 {
		t.Error("GIP on empty dataset should be empty")
	}
}

func BenchmarkAN(b *testing.B) {
	var rows []Row
	for crawl := 0; crawl < 20; crawl++ {
		for p := 0; p < 2000; p++ {
			ip := netip.AddrFrom4([4]byte{91, byte(p >> 8), byte(p), byte(crawl % 3)})
			rows = append(rows, Row{Crawl: crawl, Peer: ids.PeerIDFromSeed(uint64(p)), IP: ip})
		}
	}
	d := New(rows)
	attr := func(ip netip.Addr) string {
		if ip.As4()[3] == 0 {
			return "cloud"
		}
		return "non-cloud"
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.AN(attr, MajorityVote)
	}
}
