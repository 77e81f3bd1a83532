package timeline

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseSchedule drives the schedule parser/validator with arbitrary
// specs. Invariants:
//
//   - Parse never panics (schedules arrive from the CLI);
//   - an accepted schedule satisfies every structural bound Validate
//     enforces (so Parse can never smuggle an invalid schedule past it);
//   - the canonical form is a fixed point: String() re-parses to a
//     deeply equal Schedule whose String() is identical — stored specs
//     (JSONL rows and archives tag runs by canonical spec) are stable
//     forever.
//
// The seed corpus under testdata/fuzz/FuzzParseSchedule covers every
// clause and action shape plus classic malformed inputs; `go test`
// replays it even without -fuzz.
func FuzzParseSchedule(f *testing.F) {
	seeds := []string{
		"epochs=14;days=1;@5:hydra-dissolution",
		"epochs=3;days=2;@0:churn:2.5;@1:arrive:choopa:10;@2:depart:hetzner_online",
		"epochs=1",
		"epochs=1;days=1",
		"epochs=12;days=1;@4:depart:hetzner_online;@8:churn:2",
		"epochs=10;days=1;@2:gateway-surge;@5:aws-outage;@8:churn:0.5",
		"  @2:churn:2.0 ; epochs=3 ;@1:arrive:choopa:007; days=1 ",
		"epochs=2;@1:x;@1:y",
		"",
		";;;",
		"epochs=0",
		"epochs=129",
		"epochs=2;days=31",
		"epochs=128;days=30",
		"epochs=2;epochs=3",
		"epochs=2;bogus=1",
		"epochs=2;@2:late",
		"epochs=2;@-1:early",
		"epochs=2;@x:bad",
		"epochs=2;@1:",
		"epochs=2;@1:arrive:choopa",
		"epochs=2;@1:arrive:choopa:100001",
		"epochs=2;@1:churn:NaN",
		"epochs=2;@1:churn:-1",
		"epochs=2;@1:churn:1e308",
		"epochs=2;@1:a:b:c:d",
		"epochs=2;@1:" + strings.Repeat("a", 65),
		"epochs=2;@1:x;@1:x",
		strings.Repeat("epochs=1;", 40),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			return
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("Parse(%q) accepted a schedule Validate rejects: %v", spec, verr)
		}
		canon := s.String()
		back, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical re-parse of %q (from %q) failed: %v", canon, spec, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("canonical round-trip mismatch: %q -> %+v -> %q -> %+v", spec, s, canon, back)
		}
		if back.String() != canon {
			t.Fatalf("canonical form is not a fixed point: %q -> %q", canon, back.String())
		}
		// Sorted-event invariant: canonical events never decrease in epoch.
		for i := 1; i < len(s.Events); i++ {
			if s.Events[i].Epoch < s.Events[i-1].Epoch {
				t.Fatalf("Parse(%q) left events unsorted: %+v", spec, s.Events)
			}
		}
	})
}
