package ipdb

import (
	"fmt"
	"net/netip"
)

// Countries are the country codes the tests probe the synthetic address
// plan with (ISO 3166-1 alpha-2); every one has residential ranges.
var Countries = []string{
	"US", "DE", "KR", "CN", "GB", "FR", "SG", "NL", "JP", "CA",
	"PL", "RU", "FI", "IE", "AU", "BR", "IN", "SE", "CH", "IT",
}

// Range is one row of an explicit database definition.
type Range struct {
	CIDR     string
	Provider string
	Country  string
}

// NewFromRanges builds a database from explicit (prefix, provider, country)
// triples. Prefixes may nest; the most specific match wins.
func NewFromRanges(ranges []Range) (*DB, error) {
	entries := make([]rangeEntry, 0, len(ranges))
	for _, r := range ranges {
		p, err := netip.ParsePrefix(r.CIDR)
		if err != nil {
			return nil, fmt.Errorf("ipdb: bad prefix %q: %w", r.CIDR, err)
		}
		entries = append(entries, rangeEntry{prefix: p.Masked(), provider: r.Provider, country: r.Country})
	}
	return build(entries), nil
}
