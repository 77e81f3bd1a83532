package ipdb

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"
)

func TestDefaultLookupKnownRanges(t *testing.T) {
	db := Default()
	cases := []struct {
		ip       string
		provider string
	}{
		{"45.32.5.9", Choopa},
		{"52.3.4.5", AmazonAWS},
		{"54.70.1.1", AmazonAWS},
		{"104.18.0.7", Cloudflare},
		{"172.68.1.1", Cloudflare},
		{"173.212.9.9", Contabo},
		{"66.42.77.3", Vultr},
		{"34.70.2.2", GoogleCloud},
		{"147.75.80.1", PacketHost},
		{"73.12.13.14", NonCloud},
		{"91.5.6.7", NonCloud},
	}
	for _, c := range cases {
		info := db.Lookup(netip.MustParseAddr(c.ip))
		if info.Provider != c.provider {
			t.Errorf("Lookup(%s).Provider = %q, want %q", c.ip, info.Provider, c.provider)
		}
	}
}

func TestLookupUnknownSpace(t *testing.T) {
	db := Default()
	for _, ip := range []string{"0.0.0.1", "203.0.113.1", "255.255.255.254", "192.0.2.1"} {
		info := db.Lookup(netip.MustParseAddr(ip))
		if info.Provider != NonCloud || info.Country != "" {
			t.Errorf("Lookup(%s) = %+v, want non-cloud/unknown", ip, info)
		}
	}
}

func TestCountryConsistency(t *testing.T) {
	db := Default()
	// The first /16 of the choopa carve is US, the fourth is DE.
	if got := db.Lookup(netip.MustParseAddr("45.32.1.1")).Country; got != "US" {
		t.Errorf("45.32.1.1 country = %q, want US", got)
	}
	if got := db.Lookup(netip.MustParseAddr("45.35.1.1")).Country; got != "DE" {
		t.Errorf("45.35.1.1 country = %q, want DE", got)
	}
	// Residential German space.
	if got := db.Lookup(netip.MustParseAddr("91.3.4.5")).Country; got != "DE" {
		t.Errorf("91.3.4.5 country = %q, want DE", got)
	}
}

func TestInfoCloud(t *testing.T) {
	if (Info{Provider: NonCloud}).Cloud() {
		t.Error("non-cloud info reports Cloud() true")
	}
	if (Info{}).Cloud() {
		t.Error("zero info reports Cloud() true")
	}
	if !(Info{Provider: AmazonAWS}).Cloud() {
		t.Error("aws info reports Cloud() false")
	}
}

func TestProvidersList(t *testing.T) {
	ps := Default().Providers()
	if len(ps) < 15 {
		t.Fatalf("only %d providers in default plan", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if p == NonCloud {
			t.Error("Providers() must not include the non-cloud label")
		}
		if seen[p] {
			t.Errorf("duplicate provider %q", p)
		}
		seen[p] = true
	}
	for _, want := range []string{Choopa, Vultr, Contabo, AmazonAWS, Cloudflare} {
		if !seen[want] {
			t.Errorf("provider %q missing from default plan", want)
		}
	}
}

func TestAllocatorRoundTrip(t *testing.T) {
	db := Default()
	al := NewAllocator(db, rand.New(rand.NewSource(1)))
	for i := 0; i < 200; i++ {
		ip := al.CloudIP(Choopa, "")
		info := db.Lookup(ip)
		if info.Provider != Choopa {
			t.Fatalf("allocated choopa IP %s looked up as %q", ip, info.Provider)
		}
	}
	for i := 0; i < 200; i++ {
		ip := al.CloudIP(AmazonAWS, "DE")
		info := db.Lookup(ip)
		if info.Provider != AmazonAWS || info.Country != "DE" {
			t.Fatalf("allocated aws/DE IP %s looked up as %+v", ip, info)
		}
	}
	for i := 0; i < 200; i++ {
		ip := al.ResidentialIP("KR")
		info := db.Lookup(ip)
		if info.Provider != NonCloud || info.Country != "KR" {
			t.Fatalf("allocated KR residential IP %s looked up as %+v", ip, info)
		}
	}
}

func TestAllocatorUniqueness(t *testing.T) {
	al := NewAllocator(Default(), rand.New(rand.NewSource(2)))
	seen := map[netip.Addr]bool{}
	for i := 0; i < 5000; i++ {
		ip := al.ResidentialIP("US")
		if seen[ip] {
			t.Fatalf("duplicate allocation %s", ip)
		}
		seen[ip] = true
	}
}

func TestAllocatorDeterministic(t *testing.T) {
	a1 := NewAllocator(Default(), rand.New(rand.NewSource(7)))
	a2 := NewAllocator(Default(), rand.New(rand.NewSource(7)))
	for i := 0; i < 50; i++ {
		if x, y := a1.CloudIP(Vultr, ""), a2.CloudIP(Vultr, ""); x != y {
			t.Fatalf("allocation %d differs: %s vs %s", i, x, y)
		}
	}
}

func TestAllocatorPanicsOnUnknown(t *testing.T) {
	al := NewAllocator(Default(), rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("CloudIP(unknown provider) did not panic")
		}
	}()
	al.CloudIP("no-such-provider", "")
}

func TestNewFromRangesNesting(t *testing.T) {
	db, err := NewFromRanges([]Range{
		{CIDR: "10.0.0.0/8", Provider: "outer", Country: "US"},
		{CIDR: "10.128.0.0/16", Provider: "inner", Country: "DE"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Lookup(netip.MustParseAddr("10.128.0.5")).Provider; got != "inner" {
		t.Errorf("nested lookup = %q, want inner (longest prefix)", got)
	}
	if got := db.Lookup(netip.MustParseAddr("10.5.0.5")).Provider; got != "outer" {
		t.Errorf("outer lookup = %q, want outer", got)
	}
	if got := db.Lookup(netip.MustParseAddr("11.0.0.1")).Provider; got != NonCloud {
		t.Errorf("miss lookup = %q, want non-cloud", got)
	}
}

func TestNewFromRangesSameStartNesting(t *testing.T) {
	db, err := NewFromRanges([]Range{
		{CIDR: "10.0.0.0/8", Provider: "outer"},
		{CIDR: "10.0.0.0/16", Provider: "inner"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Lookup(netip.MustParseAddr("10.0.0.5")).Provider; got != "inner" {
		t.Errorf("same-start nested lookup = %q, want inner", got)
	}
	if got := db.Lookup(netip.MustParseAddr("10.9.0.5")).Provider; got != "outer" {
		t.Errorf("outer lookup = %q, want outer", got)
	}
}

func TestNewFromRangesBadCIDR(t *testing.T) {
	if _, err := NewFromRanges([]Range{{CIDR: "not-a-cidr"}}); err == nil {
		t.Fatal("bad CIDR accepted")
	}
}

func TestResidentialPlanCoversAllCountries(t *testing.T) {
	al := NewAllocator(Default(), rand.New(rand.NewSource(3)))
	for _, c := range Countries {
		ip := al.ResidentialIP(c)
		if got := Default().Lookup(ip).Country; got != c {
			t.Errorf("residential %s allocation geolocates to %q", c, got)
		}
	}
}

// linearRangesFor is the scan the (provider, country) index replaced:
// every entry of provider, limited to country when it is non-empty, in
// entries order.
func linearRangesFor(db *DB, provider, country string) []rangeEntry {
	var out []rangeEntry
	for _, e := range db.entries {
		if e.provider == provider && (country == "" || e.country == country) {
			out = append(out, e)
		}
	}
	return out
}

// TestRangeIndexMatchesLinearScan pins the index to the scan it
// replaced: the same ranges in the same order, so an Allocator draws the
// same addresses from the same RNG stream.
func TestRangeIndexMatchesLinearScan(t *testing.T) {
	db := Default()
	providers := append(db.Providers(), NonCloud, "no-such-provider")
	countries := append(append([]string{}, Countries...), "", "XX")
	for _, p := range providers {
		for _, c := range countries {
			got, want := db.rangesFor(p, c), linearRangesFor(db, p, c)
			if !slices.Equal(got, want) {
				t.Fatalf("rangesFor(%q, %q) = %v, want %v", p, c, got, want)
			}
			if db.Covers(p, c) != (len(want) > 0) {
				t.Fatalf("Covers(%q, %q) = %v with %d ranges", p, c, db.Covers(p, c), len(want))
			}
		}
	}
}

// TestCoversMatchesSampledFootprint keeps the sampler that once worked
// out the plan's (provider, country) pairs at package load — 256 cloud
// addresses per provider drawn with seed 0xf007 — as the oracle for
// Covers: a world picks a server's country from exactly these pairs.
func TestCoversMatchesSampledFootprint(t *testing.T) {
	db := Default()
	al := NewAllocator(db, rand.New(rand.NewSource(0xf007)))
	sampled := map[pair]bool{}
	for _, p := range db.Providers() {
		for i := 0; i < 256; i++ {
			sampled[pair{p, db.Lookup(al.CloudIP(p, "")).Country}] = true
		}
	}
	for k := range sampled {
		if !db.Covers(k.provider, k.country) {
			t.Errorf("sampled pair %v is not covered", k)
		}
	}
	for _, p := range db.Providers() {
		for _, c := range Countries {
			if got, want := db.Covers(p, c), sampled[pair{p, c}]; got != want {
				t.Errorf("Covers(%q, %q) = %v, sampled footprint says %v", p, c, got, want)
			}
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	db := Default()
	ip := netip.MustParseAddr("52.3.4.5")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = db.Lookup(ip)
	}
}

func BenchmarkLookupMiss(b *testing.B) {
	db := Default()
	ip := netip.MustParseAddr("203.0.113.77")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = db.Lookup(ip)
	}
}

func BenchmarkAllocate(b *testing.B) {
	al := NewAllocator(Default(), rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = al.CloudIP(AmazonAWS, "")
	}
}
