package netsim

import (
	"strings"
	"testing"
)

// FuzzParseLinkProfile drives the link-profile grammar with arbitrary
// specs, mirroring FuzzParseAttackParams' invariants:
//
//   - ParseLinkProfile never panics (specs arrive from the CLI and from
//     server request bodies);
//   - an accepted profile satisfies every bound Validate enforces;
//   - the canonical form is a fixed point: String() re-parses to an
//     identical profile whose String() is identical — canonical specs
//     are stable forever.
//
// The seed corpus under testdata/fuzz/FuzzParseLinkProfile covers every
// pair name, the alias, the bound edges and the classic malformed
// shapes (linkGrammarTable in link_test.go pins their exact verdicts);
// `go test` replays it even without -fuzz.
func FuzzParseLinkProfile(f *testing.F) {
	seeds := []string{""}
	for _, row := range linkGrammarTable {
		seeds = append(seeds, row.spec)
	}
	seeds = append(seeds,
		"cloud-cloud=5ms±2;resi-cloud=40ms±15,loss=0.02",
		"cloud-cloud=8ms±3;cloud-resi=40ms±15,loss=0.01;resi-resi=90ms±35,loss=0.02",
		"cloud-cloud=1e1ms±0.5",
		"cloud-cloud=999999999999999999999ms",
		strings.Repeat("cloud-cloud=5ms±2;", 40),
	)
	for _, p := range linkPresets {
		seeds = append(seeds, p.Spec)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseLinkProfile(spec)
		if err != nil {
			return
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("Parse(%q) accepted a profile Validate rejects: %v", spec, verr)
		}
		canon := p.String()
		back, err := ParseLinkProfile(canon)
		if err != nil {
			t.Fatalf("canonical re-parse of %q (from %q) failed: %v", canon, spec, err)
		}
		if back != p {
			t.Fatalf("canonical round-trip mismatch: %q -> %+v -> %q -> %+v", spec, p, canon, back)
		}
		if back.String() != canon {
			t.Fatalf("canonical form is not a fixed point: %q -> %q", canon, back.String())
		}
	})
}
