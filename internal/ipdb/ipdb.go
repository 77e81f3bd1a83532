// Package ipdb is the offline substitute for the two commercial IP
// databases the paper uses: the Udger cloud-provider database (IP →
// hosting/cloud provider) and MaxMind GeoLite2 (IP → country).
//
// It defines a synthetic but realistically shaped IPv4 address plan: every
// cloud provider that appears in the paper's figures (choopa, vultr,
// contabo, Amazon AWS, DigitalOcean, Cloudflare, Google Cloud, packet_host,
// …) owns a set of prefixes subdivided by country, and every country has
// residential ("non-cloud") prefixes for user-operated nodes. Lookups use
// longest-prefix match exactly like a real IP-intelligence database, and an
// Allocator hands out addresses from the right pool so that scenario
// generation, lookup and analysis all agree.
//
// The substitution preserves the paper's measurement semantics: the
// analysis code asks "which provider hosts this IP?" and "which country is
// this IP in?" and gets answers with the same shape (including "no entry →
// non-cloud", the rule the paper inherits from Trautwein et al.).
package ipdb

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"sync"
)

// Provider names, matching the labels used in the paper's figures.
const (
	Choopa       = "choopa"
	Vultr        = "vultr"
	Contabo      = "contabo_gmbh"
	AmazonAWS    = "amazon_aws"
	DigitalOcean = "digitalocean"
	Cloudflare   = "cloudflare_inc"
	GoogleCloud  = "google_cloud"
	Google       = "google"
	PacketHost   = "packet_host"
	Hetzner      = "hetzner_online"
	OVH          = "ovh"
	Azure        = "microsoft_azure"
	OracleCloud  = "oracle_cloud"
	Alibaba      = "alibaba_cloud"
	Linode       = "linode"
	DataCamp     = "datacamp"
	Leaseweb     = "leaseweb"
	Tencent      = "tencent_cloud"

	// NonCloud is the label for addresses with no database entry. The
	// paper: "If there are no entries for a given address in the database,
	// we mark it as non-cloud."
	NonCloud = "non-cloud"
)

// Info is the result of a database lookup.
type Info struct {
	// Provider is the cloud/hosting provider owning the address, or
	// NonCloud when the database has no entry.
	Provider string
	// Country is the geolocated country code, or "" if the address is
	// outside every known range (bogons, unassigned space).
	Country string
}

// Cloud reports whether the address belongs to a known cloud provider.
func (i Info) Cloud() bool { return i.Provider != NonCloud && i.Provider != "" }

type rangeEntry struct {
	prefix   netip.Prefix
	provider string // NonCloud for residential ranges
	country  string
}

// pair is a (provider, country) index key.
type pair struct{ provider, country string }

// DB is an immutable IP-intelligence database. It is safe for concurrent
// use.
type DB struct {
	// entries sorted by prefix start address, then by descending prefix
	// length so that longest-prefix match can scan backwards from the
	// insertion point.
	entries []rangeEntry
	// byProvider and byPair hold the entries of each provider and of
	// each (provider, country), in entries order, so an allocation
	// draws from the same slice a scan of entries would build.
	byProvider map[string][]rangeEntry
	byPair     map[pair][]rangeEntry
}

var (
	defaultOnce sync.Once
	defaultDB   *DB
)

// Default returns the built-in database with the full synthetic address
// plan. The same instance is returned on every call.
func Default() *DB {
	defaultOnce.Do(func() {
		defaultDB = build(defaultPlan())
	})
	return defaultDB
}

func build(entries []rangeEntry) *DB {
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].prefix, entries[j].prefix
		if c := a.Addr().Compare(b.Addr()); c != 0 {
			return c < 0
		}
		return a.Bits() < b.Bits() // wider ranges first at equal start
	})
	db := &DB{
		entries:    entries,
		byProvider: make(map[string][]rangeEntry),
		byPair:     make(map[pair][]rangeEntry),
	}
	for _, e := range entries {
		db.byProvider[e.provider] = append(db.byProvider[e.provider], e)
		k := pair{e.provider, e.country}
		db.byPair[k] = append(db.byPair[k], e)
	}
	return db
}

// Lookup returns provider and country information for ip. Addresses
// outside every range get Provider == NonCloud and an empty Country.
//
// Prefixes in the database may nest but must not partially overlap (the
// built-in plan follows this, as do the tests' hand-built databases).
// Under that rule the longest match is the containing prefix with the
// greatest start address, which is the first containing entry found
// scanning backwards from the binary-search insertion point.
func (db *DB) Lookup(ip netip.Addr) Info {
	i := sort.Search(len(db.entries), func(i int) bool {
		return db.entries[i].prefix.Addr().Compare(ip) > 0
	})
	for j := i - 1; j >= 0; j-- {
		if e := db.entries[j]; e.prefix.Contains(ip) {
			return Info{Provider: e.provider, Country: e.country}
		}
	}
	return Info{Provider: NonCloud}
}

// Providers returns the distinct cloud provider labels in the database,
// sorted alphabetically.
func (db *DB) Providers() []string {
	out := make([]string, 0, len(db.byProvider))
	for p := range db.byProvider {
		if p != NonCloud {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Covers reports whether the database has a range of provider in
// country, or in any country when country is "". The Allocator panics
// exactly for the pairs it does not cover.
func (db *DB) Covers(provider, country string) bool {
	return len(db.rangesFor(provider, country)) > 0
}

// rangesFor returns all ranges matching the provider (and country if
// non-empty), in entries order. The slice belongs to the index: callers
// must not modify it.
func (db *DB) rangesFor(provider, country string) []rangeEntry {
	if country == "" {
		return db.byProvider[provider]
	}
	return db.byPair[pair{provider, country}]
}

// Allocator hands out unique addresses from the database's pools. It is
// deterministic for a given *rand.Rand and not safe for concurrent use.
type Allocator struct {
	db   *DB
	rng  *rand.Rand
	used map[netip.Addr]bool
}

// NewAllocator creates an allocator drawing addresses with rng.
func NewAllocator(db *DB, rng *rand.Rand) *Allocator {
	return &Allocator{db: db, rng: rng, used: make(map[netip.Addr]bool)}
}

// CloudIP allocates a fresh address owned by the given provider. If
// country is non-empty the address is drawn from that provider's ranges in
// that country; otherwise a range is picked uniformly across the
// provider's footprint. It panics if the provider has no matching range —
// that is a scenario-configuration bug.
func (al *Allocator) CloudIP(provider, country string) netip.Addr {
	ranges := al.db.rangesFor(provider, country)
	if len(ranges) == 0 {
		panic(fmt.Sprintf("ipdb: no ranges for provider %q country %q", provider, country))
	}
	return al.fromRanges(ranges)
}

// ResidentialIP allocates a fresh non-cloud address in the given country.
func (al *Allocator) ResidentialIP(country string) netip.Addr {
	ranges := al.db.rangesFor(NonCloud, country)
	if len(ranges) == 0 {
		panic(fmt.Sprintf("ipdb: no residential ranges for country %q", country))
	}
	return al.fromRanges(ranges)
}

func (al *Allocator) fromRanges(ranges []rangeEntry) netip.Addr {
	for attempt := 0; attempt < 10000; attempt++ {
		e := ranges[al.rng.Intn(len(ranges))]
		ip := randomInPrefix(al.rng, e.prefix)
		if !al.used[ip] {
			al.used[ip] = true
			return ip
		}
	}
	panic("ipdb: address pool exhausted")
}

// randomInPrefix draws a uniform host address within an IPv4 prefix,
// avoiding the network (.0 in small nets) and broadcast edges for realism.
func randomInPrefix(rng *rand.Rand, p netip.Prefix) netip.Addr {
	a4 := p.Addr().As4()
	base := uint32(a4[0])<<24 | uint32(a4[1])<<16 | uint32(a4[2])<<8 | uint32(a4[3])
	hostBits := 32 - p.Bits()
	size := uint32(1) << uint(hostBits)
	var off uint32
	if size <= 2 {
		off = 0
	} else {
		off = 1 + uint32(rng.Intn(int(size-2)))
	}
	v := base + off
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// defaultPlan builds the synthetic address plan. Each provider prefix is
// carved into per-country /16-or-smaller blocks so geolocation is
// consistent with provider attribution.
func defaultPlan() []rangeEntry {
	var entries []rangeEntry
	add := func(cidr, provider, country string) {
		p := netip.MustParsePrefix(cidr)
		entries = append(entries, rangeEntry{prefix: p.Masked(), provider: provider, country: country})
	}

	// carve splits base (a /12) into 16 consecutive /16s distributed over
	// the given countries, weighted by repetition in the list.
	carve := func(baseCIDR, provider string, countries []string) {
		base := netip.MustParsePrefix(baseCIDR)
		if base.Bits() != 12 {
			panic("ipdb: carve expects a /12 base")
		}
		a4 := base.Addr().As4()
		for i := 0; i < 16; i++ {
			c := countries[i%len(countries)]
			cidr := fmt.Sprintf("%d.%d.0.0/16", a4[0], int(a4[1])+i)
			add(cidr, provider, c)
		}
	}

	// Cloud providers. Country mixes loosely reflect where each provider
	// concentrates capacity; exact weights are set by the scenario, which
	// requests (provider, country) pairs explicitly.
	carve("45.32.0.0/12", Choopa, []string{"US", "US", "US", "DE", "DE", "KR", "KR", "GB", "FR", "NL", "SG", "JP", "US", "DE", "KR", "US"})
	carve("66.32.0.0/12", Vultr, []string{"US", "US", "DE", "KR", "GB", "FR", "NL", "SG", "JP", "AU", "US", "DE", "KR", "US", "IN", "BR"})
	carve("173.208.0.0/12", Contabo, []string{"DE", "DE", "DE", "US", "US", "GB", "SG", "DE", "US", "DE", "PL", "FR", "DE", "US", "DE", "JP"})
	carve("52.0.0.0/12", AmazonAWS, []string{"US", "US", "US", "US", "US", "DE", "DE", "IE", "GB", "SG", "JP", "KR", "US", "FR", "AU", "CA"})
	carve("54.64.0.0/12", AmazonAWS, []string{"US", "US", "DE", "IE", "JP", "SG", "US", "KR", "US", "GB", "FR", "US", "CA", "AU", "IN", "BR"})
	carve("134.208.0.0/12", DigitalOcean, []string{"US", "US", "DE", "NL", "GB", "SG", "IN", "CA", "US", "DE", "NL", "US", "FR", "AU", "US", "SG"})
	carve("104.16.0.0/12", Cloudflare, []string{"US", "US", "US", "DE", "GB", "NL", "SG", "JP", "FR", "US", "US", "DE", "AU", "CA", "US", "US"})
	carve("172.64.0.0/12", Cloudflare, []string{"US", "US", "DE", "GB", "NL", "US", "SG", "JP", "US", "FR", "US", "US", "KR", "IN", "BR", "US"})
	carve("34.64.0.0/12", GoogleCloud, []string{"US", "US", "US", "DE", "NL", "GB", "SG", "JP", "KR", "FI", "US", "US", "FR", "AU", "IN", "CA"})
	carve("142.240.0.0/12", Google, []string{"US", "US", "US", "DE", "GB", "JP", "US", "SG", "US", "FR", "US", "NL", "US", "KR", "US", "US"})
	carve("147.64.0.0/12", PacketHost, []string{"US", "US", "NL", "DE", "SG", "JP", "US", "GB", "US", "NL", "US", "DE", "US", "FR", "US", "US"})
	carve("78.32.0.0/12", Hetzner, []string{"DE", "DE", "DE", "DE", "FI", "FI", "DE", "US", "DE", "FI", "DE", "DE", "US", "DE", "DE", "DE"})
	carve("51.64.0.0/12", OVH, []string{"FR", "FR", "FR", "DE", "GB", "CA", "PL", "FR", "FR", "DE", "FR", "CA", "FR", "GB", "FR", "FR"})
	carve("20.32.0.0/12", Azure, []string{"US", "US", "US", "DE", "IE", "GB", "SG", "JP", "KR", "NL", "US", "US", "FR", "AU", "IN", "BR"})
	carve("129.144.0.0/12", OracleCloud, []string{"US", "US", "DE", "GB", "JP", "KR", "US", "NL", "US", "SG", "US", "DE", "CH", "US", "IN", "AU"})
	carve("47.64.0.0/12", Alibaba, []string{"CN", "CN", "CN", "SG", "US", "DE", "JP", "CN", "CN", "SG", "CN", "US", "CN", "GB", "CN", "CN"})
	carve("172.96.0.0/12", Linode, []string{"US", "US", "DE", "GB", "SG", "JP", "US", "CA", "US", "IN", "US", "DE", "AU", "US", "FR", "US"})
	carve("89.176.0.0/12", DataCamp, []string{"GB", "US", "NL", "DE", "FR", "SG", "GB", "US", "NL", "GB", "US", "DE", "GB", "JP", "GB", "US"})
	carve("23.80.0.0/12", Leaseweb, []string{"NL", "NL", "US", "DE", "GB", "NL", "US", "SG", "NL", "US", "DE", "NL", "FR", "US", "NL", "NL"})
	carve("119.16.0.0/12", Tencent, []string{"CN", "CN", "CN", "SG", "CN", "US", "CN", "JP", "CN", "KR", "CN", "CN", "DE", "CN", "CN", "CN"})

	// Residential (non-cloud) space, per country. Two /12s per major
	// country so the churn/IP-rotation model has room to rotate.
	res := map[string][]string{
		"US": {"73.0.0.0/12", "98.0.0.0/12", "98.16.0.0/12"},
		"DE": {"91.0.0.0/12", "84.128.0.0/12"},
		"KR": {"121.128.0.0/12", "211.32.0.0/12"},
		"CN": {"114.80.0.0/12", "222.64.0.0/12"},
		"GB": {"86.128.0.0/12", "81.96.0.0/12"},
		"FR": {"90.0.0.0/12", "82.224.0.0/12"},
		"SG": {"116.86.0.0/16", "101.127.0.0/16"},
		"NL": {"77.160.0.0/12"},
		"JP": {"126.0.0.0/12", "153.128.0.0/12"},
		"CA": {"70.48.0.0/12"},
		"PL": {"83.0.0.0/12"},
		"RU": {"95.24.0.0/12"},
		"FI": {"85.76.0.0/14"},
		"IE": {"86.40.0.0/14"},
		"AU": {"120.16.0.0/12"},
		"BR": {"177.32.0.0/12"},
		"IN": {"106.192.0.0/12"},
		"SE": {"78.64.0.0/14"},
		"CH": {"85.0.0.0/14"},
		"IT": {"79.0.0.0/12"},
	}
	for country, cidrs := range res {
		for _, c := range cidrs {
			add(c, NonCloud, country)
		}
	}
	return entries
}
