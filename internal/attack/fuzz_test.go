package attack

import (
	"strings"
	"testing"
)

// FuzzParseAttackParams drives the attack parameter grammar with
// arbitrary specs, mirroring FuzzParseSchedule's invariants:
//
//   - Parse never panics (params arrive from the CLI);
//   - an accepted AttackConfig satisfies every bound Validate enforces;
//   - the canonical form is a fixed point: Spec re-parses to an
//     identical AttackConfig whose Spec is identical — canonical specs
//     are stable forever.
//
// The seed corpus under testdata/fuzz/FuzzParseAttackParams covers
// every key, the bound edges, and the classic malformed shapes (the
// regression table in attack_test.go pins their exact verdicts);
// `go test` replays it even without -fuzz.
func FuzzParseAttackParams(f *testing.F) {
	seeds := []string{
		"",
		";;;",
		"band=16",
		"band=20;sybils=48",
		"  SPAM = 100 ; poison=0 ",
		"poison=64;stampede=0;spam=0;targets=64;sybils=512;band=64",
		"band=4;sybils=1;targets=1",
		"band=16;sybils=24;targets=3;spam=12;stampede=30;poison=2",
		"band",
		"=5",
		"width=5",
		"band=16;band=16",
		"band=x",
		"band=",
		"band=1e2",
		"band=3",
		"band=65",
		"sybils=0",
		"sybils=513",
		"targets=0",
		"spam=-1",
		"spam=1001",
		"stampede=1001",
		"poison=65",
		"band=999999999999999999999",
		strings.Repeat("band=16;", 40),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		a, err := Parse(spec)
		if err != nil {
			return
		}
		if verr := Validate(a); verr != nil {
			t.Fatalf("Parse(%q) accepted params Validate rejects: %v", spec, verr)
		}
		canon := Spec(a)
		back, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical re-parse of %q (from %q) failed: %v", canon, spec, err)
		}
		if back != a {
			t.Fatalf("canonical round-trip mismatch: %q -> %+v -> %q -> %+v", spec, a, canon, back)
		}
		if Spec(back) != canon {
			t.Fatalf("canonical form is not a fixed point: %q -> %q", canon, Spec(back))
		}
	})
}
